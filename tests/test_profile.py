"""Experiment profiles: Table 1 validation and factories."""

import pytest

from repro.core import PAPER_CLAY_PROFILE, PAPER_RS_PROFILE, ExperimentProfile
from repro.ec import ClayCode, ReedSolomon


def test_default_profile_is_paper_rs():
    profile = ExperimentProfile()
    code = profile.create_code()
    assert isinstance(code, ReedSolomon)
    assert (code.n, code.k) == (12, 9)
    assert profile.pg_num == 256
    assert profile.stripe_unit == 4 * 1024 * 1024
    assert profile.failure_domain == "host"


def test_paper_profiles():
    rs = PAPER_RS_PROFILE.create_code()
    clay = PAPER_CLAY_PROFILE.create_code()
    assert (rs.n, rs.k) == (12, 9)
    assert isinstance(clay, ClayCode)
    assert (clay.n, clay.k, clay.d) == (12, 9, 11)


def test_invalid_options_rejected():
    with pytest.raises(ValueError, match="backend"):
        ExperimentProfile(backend="zfs")
    with pytest.raises(ValueError, match="device class"):
        ExperimentProfile(device_class="tape")
    with pytest.raises(ValueError, match="failure domain"):
        ExperimentProfile(failure_domain="dc")
    with pytest.raises(ValueError, match="cache scheme"):
        ExperimentProfile(cache_scheme="everything")
    with pytest.raises(ValueError, match="EC plugin"):
        ExperimentProfile(ec_plugin="raid6")
    with pytest.raises(ValueError):
        ExperimentProfile(pg_num=0)
    with pytest.raises(ValueError):
        ExperimentProfile(stripe_unit=-4)
    with pytest.raises(ValueError):
        ExperimentProfile(num_hosts=0)


def test_bad_ec_params_fail_fast():
    with pytest.raises(ValueError):
        ExperimentProfile(ec_plugin="clay", ec_params={"k": 9, "m": 3, "d": 12})


def test_with_overrides_returns_new_profile():
    base = ExperimentProfile(name="base")
    swept = base.with_overrides(stripe_unit=4 * 1024, name="swept")
    assert swept.stripe_unit == 4 * 1024
    assert base.stripe_unit == 4 * 1024 * 1024
    assert swept.pg_num == base.pg_num


def test_cache_config_resolution():
    profile = ExperimentProfile(cache_scheme="kv-optimized")
    config = profile.cache_config()
    assert config.kv_ratio == 0.70
    filestore = ExperimentProfile(backend="filestore")
    assert filestore.cache_config().name == "filestore-pagecache"


def test_describe_mentions_key_settings():
    text = ExperimentProfile(name="x", pg_num=16).describe()
    assert "pg_num=16" in text
    assert "jerasure" in text


def test_lrc_and_shec_profiles_construct():
    lrc = ExperimentProfile(ec_plugin="lrc", ec_params={"k": 12, "l": 2, "r": 2})
    shec = ExperimentProfile(ec_plugin="shec", ec_params={"k": 8, "m": 4, "l": 5})
    assert lrc.create_code().n == 16
    assert shec.create_code().n == 12


def test_device_class_selects_disk_spec():
    from repro.cluster import GP_SSD, NEARLINE_HDD

    assert ExperimentProfile(device_class="ssd").disk_spec() is GP_SSD
    assert ExperimentProfile(device_class="hdd").disk_spec() is NEARLINE_HDD


def test_num_racks_validated():
    with pytest.raises(ValueError, match="num_racks"):
        ExperimentProfile(num_hosts=5, num_racks=6)
    profile = ExperimentProfile(num_hosts=9, num_racks=3)
    assert profile.num_racks == 3


@pytest.mark.parametrize("num_regions", [1, 3])
def test_region_failure_domain_refused(num_regions):
    """A region is one bucket, and a region rule places shards in
    sub-region buckets, so no stripe fits a region domain; the profile
    says so before any cluster is built."""
    with pytest.raises(ValueError, match="set num_regions with a host, "
                                         "rack or osd domain"):
        ExperimentProfile(failure_domain="region", num_hosts=12,
                          num_regions=num_regions)
