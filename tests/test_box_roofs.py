"""Every roof of the 3 x 3 x 3 box, one per class of the lattice symmetries.

The 980 antichains of the box close to 489 roofs and the empty region,
in 50 classes and the empty one.  ``box_sweep.sweep`` checks every class
against the oracles of ``conftest.py``; its module docstring lists the
checks.  Run as ``pytest tests/test_box_roofs.py -s`` to see the table
line; the module takes about 1 s (2-vCPU container, Python 3.11).  The
4-box runs the same sweep outside tier-1, as
``PYTHONPATH=src python tests/box_sweep.py 4``.
"""

from box_sweep import EXPECTED, sweep, table_line


def test_every_roof_of_the_3_box():
    counts = sweep(3)
    print(table_line(3, counts))
    assert counts == EXPECTED[3]
