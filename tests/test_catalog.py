import math
import random

import pytest

from spotindex import (
    Catalog,
    ConflictError,
    InvariantError,
    ParseError,
    ResourceRequirement,
    Scope,
    VmFamily,
    VmSpec,
    filter_candidates,
    load_catalog,
)


def make_spec(vm_id="vm-a", cpu=8.0, mem=32.0, od=40.0, **kw):
    fields = dict(
        id=vm_id,
        instance_type=kw.pop("instance_type", vm_id),
        zone=kw.pop("zone", "z1"),
        region=kw.pop("region", "r1"),
        family=kw.pop("family", "general"),
        cpu_capacity=cpu,
        mem_capacity=mem,
        on_demand_price=od,
    )
    fields.update(kw)
    return VmSpec(**fields)


def test_capacity_scale_value():
    assert make_spec(cpu=8.0, mem=32.0).capacity_scale == 16.0


def test_capacity_scale_random():
    rng = random.Random(7)
    for _ in range(200):
        cpu = rng.uniform(0.5, 128.0)
        mem = rng.uniform(0.5, 1024.0)
        spec = make_spec(cpu=cpu, mem=mem)
        assert math.isclose(spec.capacity_scale, math.sqrt(cpu * mem), rel_tol=1e-12)


def test_spec_rejects_bad_numbers():
    with pytest.raises(InvariantError):
        make_spec(cpu=0.0)
    with pytest.raises(InvariantError):
        make_spec(mem=-1.0)
    with pytest.raises(InvariantError):
        make_spec(od=float("inf"))
    with pytest.raises(InvariantError):
        make_spec(vm_id="")


def test_family_coercion():
    assert make_spec(family="compute").family is VmFamily.COMPUTE
    with pytest.raises(ValueError):
        make_spec(family="quantum")


def test_requirement_satisfied_by():
    spec = make_spec(cpu=4.0, mem=16.0)
    assert ResourceRequirement(4.0, 16.0).satisfied_by(spec)
    assert ResourceRequirement(0.0, 0.0).satisfied_by(spec)
    assert not ResourceRequirement(4.1, 16.0).satisfied_by(spec)
    assert not ResourceRequirement(4.0, 16.5).satisfied_by(spec)
    with pytest.raises(InvariantError):
        ResourceRequirement(-1.0, 0.0)


def test_catalog_duplicate_id():
    with pytest.raises(ConflictError):
        Catalog([make_spec("a"), make_spec("a")])


def test_catalog_lookup_and_order():
    cat = Catalog([make_spec("b"), make_spec("a"), make_spec("c")])
    assert [s.id for s in cat] == ["a", "b", "c"]
    assert cat["b"].id == "b"
    assert "c" in cat and "d" not in cat
    assert cat.get("d") is None
    assert len(cat) == 3


def test_resolve_instance():
    cat = Catalog(
        [
            make_spec("a", instance_type="m4.large", zone="z1"),
            make_spec("b", instance_type="m4.large", zone="z2"),
        ]
    )
    assert cat.resolve_instance("m4.large", "z2").id == "b"
    assert cat.resolve_instance("m4.large", "z3") is None


def test_filter_candidates_sorted_and_scoped():
    cat = Catalog(
        [
            make_spec("small", cpu=2.0, mem=8.0),
            make_spec("big", cpu=8.0, mem=32.0, region="r2"),
            make_spec("mid", cpu=4.0, mem=16.0),
        ]
    )
    req = ResourceRequirement(4.0, 16.0)
    assert [s.id for s in filter_candidates(cat, req)] == ["big", "mid"]
    assert [s.id for s in filter_candidates(cat, req, Scope(region="r1"))] == ["mid"]
    assert [s.id for s in filter_candidates(cat, req, None)] == ["big", "mid"]


def test_filter_monotone_in_requirement():
    rng = random.Random(11)
    specs = [
        make_spec(f"vm{i}", cpu=rng.uniform(1, 64), mem=rng.uniform(1, 256))
        for i in range(30)
    ]
    cat = Catalog(specs)
    for _ in range(50):
        cpu = rng.uniform(0, 64)
        mem = rng.uniform(0, 256)
        loose = {s.id for s in filter_candidates(cat, ResourceRequirement(cpu, mem))}
        tight = {
            s.id
            for s in filter_candidates(
                cat, ResourceRequirement(cpu * 1.5, mem * 1.5)
            )
        }
        assert tight <= loose


def test_load_catalog_csv(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "id,instance_type,zone,region,family,cpu_capacity,mem_capacity,on_demand_price\n"
        "a,m4.large,z1,r1,general,2,8,10.0\n"
        "b,c4.2xlarge,z1,r1,compute,8,16,39.8\n"
    )
    cat = load_catalog(path)
    assert [s.id for s in cat] == ["a", "b"]
    assert cat["b"].family is VmFamily.COMPUTE
    assert cat["a"].on_demand_price == 10.0


def test_load_catalog_jsonl(tmp_path):
    path = tmp_path / "catalog.jsonl"
    path.write_text(
        '{"id": "a", "instance_type": "t", "zone": "z", "region": "r",'
        ' "family": "memory", "cpu_capacity": 4, "mem_capacity": 30.5,'
        ' "on_demand_price": 26.6}\n'
        "\n"
    )
    cat = load_catalog(path)
    assert [s.id for s in cat] == ["a"]
    assert cat["a"].mem_capacity == 30.5


def test_load_catalog_reports_line_and_field(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "id,instance_type,zone,region,family,cpu_capacity,mem_capacity,on_demand_price\n"
        "a,t,z,r,general,2,8,10.0\n"
        "b,t,z,r,general,eight,8,10.0\n"
    )
    with pytest.raises(ParseError) as err:
        load_catalog(path)
    assert err.value.line == 3
    assert err.value.field == "cpu_capacity"


def test_load_catalog_rejects_unknown_family(tmp_path):
    path = tmp_path / "catalog.jsonl"
    path.write_text(
        '{"id": "a", "instance_type": "t", "zone": "z", "region": "r",'
        ' "family": "warp", "cpu_capacity": 4, "mem_capacity": 8,'
        ' "on_demand_price": 1.0}\n'
    )
    with pytest.raises(ParseError) as err:
        load_catalog(path)
    assert err.value.field == "family"


def test_load_catalog_missing_value(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "id,instance_type,zone,region,family,cpu_capacity,mem_capacity,on_demand_price\n"
        "a,t,z,r,general,2,,10.0\n"
    )
    with pytest.raises(ParseError) as err:
        load_catalog(path)
    assert err.value.field == "mem_capacity"
    assert err.value.line == 2


VALID_JSONL = (
    '{"id": "a", "instance_type": "t", "zone": "z", "region": "r", "family": "memory",'
    ' "cpu_capacity": 4, "mem_capacity": 30.5, "on_demand_price": 26.6}\n'
)


@pytest.mark.parametrize(
    "name, text, line",
    [
        ("catalog.csv", "", None),
        ("catalog.jsonl", VALID_JSONL + '{"id": "b",\n', 2),
        ("catalog.jsonl", VALID_JSONL + "\n" + '["b"]\n', 3),
    ],
)
def test_load_catalog_locates_unreadable_input(tmp_path, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_catalog(path)
    assert (err.value.source, err.value.line, err.value.field) == (path, line, None)
