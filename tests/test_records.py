"""The record semantics shared by every descriptor class.

Surfaces, disk descriptors, catalog configs and catalogs are immutable
records: equal only to an instance of the same class with equal fields,
hashed as the tuple of those fields (so set and dict order, and
every recorded byte, follow from the fields alone), shown as
``Cls(field=value, ...)``, and closed to any assignment.
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
from disklab.surface import TubedSurface, build_tubed_surface

SURFACE = build_tubed_surface(1, 2)
CATALOG = build_disk_catalog(SURFACE, CatalogConfig(arc_bound=2))


# Each case: the class, its constructor fields in order, all compared, and one
# field with a different value.
CASES = {
    "Meridian": (Meridian, {"index": 2}, ("index", 3)),
    "VerticalDisk": (VerticalDisk, {"region": 1, "arc": (-1,)}, ("arc", (-2,))),
    "BandSum": (
        BandSum,
        {"base": 2, "partner": VerticalDisk(2, (-1,)), "band": (-1,), "copies": 1},
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
        },
        ("copies", (1, 2)),
    ),
    "DiskCatalog": (
        DiskCatalog,
        {"surface": SURFACE, "config": CATALOG.config, "disks": CATALOG.disks, "arcs": CATALOG.arcs},
        ("disks", CATALOG.disks[:-1]),
    ),
    "TubedSurface": (TubedSurface, {"genus_base": 1, "tubes": 2}, ("genus_base", 2)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_record_semantics(name):
    cls, fields, (changed, other_value) = CASES[name]
    x = cls(**fields)
    values = tuple(getattr(x, f) for f in fields)

    # Positional and keyword construction agree; equality is by field.
    assert cls(*fields.values()) == x
    assert not cls(*fields.values()) != x
    assert cls(**{**fields, changed: other_value}) != x

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

