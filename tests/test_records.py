"""The record semantics shared by every descriptor class.

Surfaces, disk descriptors, catalog configs and catalogs, and sphere
vertices and spheres are immutable records: equal only to an instance of
the same class with equal compared fields, hashed as the tuple of those
fields (so set and dict order, and every recorded byte, follow from the
fields alone), shown as ``Cls(field=value, ...)``, and closed to any
assignment.
"""

import copy
import pickle

import pytest

from disklab.disks import (
    SELF_PARTNER,
    BandSum,
    CatalogConfig,
    DiskCatalog,
    Meridian,
    VerticalDisk,
    build_disk_catalog,
)
from disklab.retraction import SphereVertex, SuspensionSphere, build_suspension_sphere
from disklab.surface import Region, TubedSurface, build_tubed_surface

SURFACE = build_tubed_surface(1, 2)
CATALOG = build_disk_catalog(SURFACE, CatalogConfig(arc_bound=2))
SPHERE = build_suspension_sphere(SURFACE, CATALOG)


# Each case: the class, constructor fields in order (the compared ones first),
# the names of the trailing fields that are shown but not compared, and one
# compared field with a different value.
CASES = {
    "Meridian": (Meridian, {"index": 2}, (), ("index", 3)),
    "VerticalDisk": (VerticalDisk, {"region": 1, "arc": (-1,)}, (), ("arc", (-2,))),
    "BandSum": (
        BandSum,
        {"base": 2, "partner": VerticalDisk(2, (-1,)), "band": (-1,), "copies": 1},
        (),
        ("partner", SELF_PARTNER),
    ),
    "CatalogConfig": (
        CatalogConfig,
        {
            "arc_bound": 3,
            "bandsum_depth": 1,
            "max_vd_arcs_per_region": 4,
            "max_band_arcs": 2,
            "max_partner_arcs": 1,
            "copies": (1, 3),
            "max_arc_classes": 500,
        },
        (),
        ("copies", (1, 2)),
    ),
    "DiskCatalog": (
        DiskCatalog,
        {"surface": SURFACE, "config": CATALOG.config, "disks": CATALOG.disks, "arc_classes": CATALOG.arc_classes},
        ("arc_classes",),
        ("disks", CATALOG.disks[:-1]),
    ),
    "Region": (
        Region,
        {"index": 2, "block_side": "A", "own_tube_side": "B", "feet_bottom": (1,), "feet_top": ()},
        (),
        ("feet_top", (3,)),
    ),
    "TubedSurface": (TubedSurface, {"genus_base": 1, "tubes": 2, "regions": SURFACE.regions}, (), ("genus_base", 2)),
    "SphereVertex": (SphereVertex, {"pair_index": 1, "letter": "D"}, (), ("letter", "E")),
    "SuspensionSphere": (
        SuspensionSphere,
        {"surface": SURFACE, "d_disks": SPHERE.d_disks, "e_disks": SPHERE.e_disks},
        (),
        ("e_disks", SPHERE.d_disks),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_record_semantics(name):
    cls, fields, uncompared, (changed, other_value) = CASES[name]
    x = cls(**fields)
    compared = [f for f in fields if f not in uncompared]
    values = tuple(getattr(x, f) for f in compared)

    # Positional and keyword construction agree; equality is by compared field.
    assert cls(*fields.values()) == x
    assert not cls(*fields.values()) != x
    assert cls(**{**fields, changed: other_value}) != x
    if uncompared:
        assert cls(**{**fields, **{f: {} for f in uncompared}}) == x

    # Only an instance of the same class is equal, never a subclass or a tuple.
    sub = type("Sub", (cls,), {})
    assert sub(**fields) != x and x != sub(**fields)
    assert x != values

    assert hash(x) == hash(values) == hash(cls(**fields))
    shown = ", ".join(f"{f}={getattr(x, f)!r}" for f in fields)
    assert repr(x) == f"{name}({shown})"

    for f in fields:
        before = getattr(x, f)
        with pytest.raises(AttributeError):
            setattr(x, f, other_value)
        assert getattr(x, f) is before
    with pytest.raises(AttributeError):
        x.not_a_field = 1

    assert copy.copy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


def test_sphere_vertices_sort_by_pair_index_then_letter():
    vertices = [SphereVertex(i, letter) for i in (2, 0, 1) for letter in "ED"]
    assert sorted(vertices) == [SphereVertex(i, letter) for i in (0, 1, 2) for letter in "DE"]
    assert min(vertices) == SphereVertex(0, "D")
    assert SphereVertex(0, "E") < SphereVertex(1, "D") <= SphereVertex(1, "D") < SphereVertex(1, "E")
    assert SphereVertex(2, "D") > SphereVertex(1, "E") >= SphereVertex(1, "E")
    with pytest.raises(TypeError):
        SphereVertex(0, "D") < (0, "D")
