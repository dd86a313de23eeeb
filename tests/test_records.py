"""Every record is an immutable tuple that checks its fields when it is built."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockcraft.cli as cli
from blockcraft.errors import CrossCheckError
from blockcraft.glq_blocks import EllContext, unipotent_blocks
from blockcraft.glq_chars import SeriesLabel
from blockcraft.partitions import d_core_and_quotient
from blockcraft.report import VerificationReport
from blockcraft.sym_blocks import SymBlockLabel, block_members_and_heights
from blockcraft.sym_chars import build_table, central_character_blocks
from blockcraft.wreath_local import DegreeMultiset, MetacyclicSpec

BLOCK = SymBlockLabel(p=2, core=(), weight=2)
REPORT = dict(conjecture="mckay", parameters={"n": 6, "p": 2}, global_count=8, local_count=8,
              passed=True)

# Record name -> (a valid record, [(keyword arguments it refuses, error)]).
RECORDS = {
    "Check": (cli.CHECKS["sym_mckay"], []),
    "VerificationReport": (
        VerificationReport(**REPORT),
        [({**REPORT, "conjecture": "riemann"}, ValueError)],
    ),
    "CoreQuotient": (d_core_and_quotient((3, 1), 2), []),
    "SymBlockLabel": (
        BLOCK,
        [
            (dict(p=4, core=(), weight=1), ValueError),
            (dict(p=3, core=(), weight=-1), ValueError),
            (dict(p=3, core=(3,), weight=0), ValueError),  # (3) has a 3-hook
        ],
    ),
    "BlockCharacterData": (
        block_members_and_heights(BLOCK),
        [(dict(label=BLOCK, members=((4,),), heights={(4,): 1}, defect_group_order=8),
          CrossCheckError)],
    ),
    "SymCharacterTable": (build_table(3), []),
    "BlockPartitionOracle": (central_character_blocks(3, 2), []),
    "DegreeMultiset": (
        DegreeMultiset(entries=((1, 2),), group_order=2),
        [
            (dict(entries=((2, 1), (1, 1)), group_order=5), ValueError),
            (dict(entries=((0, 1), (1, 1)), group_order=1), ValueError),
            (dict(entries=((1, 2),), group_order=3), CrossCheckError),
        ],
    ),
    "MetacyclicSpec": (
        MetacyclicSpec(m=5, d=4, u=2),
        [(dict(m=5, d=2, u=3), ValueError)],  # 3^2 = 4 != 1 mod 5
    ),
    "SeriesLabel": (
        SeriesLabel(components=((1, 2, (2,)),)),
        [(dict(components=((1, 2, (1,)),)), ValueError)],
    ),
    "GlUnipotentBlockLabel": (unipotent_blocks(4, EllContext(q=2, ell=7))[0], []),
    "EllContext": (
        EllContext(q=2, ell=7),
        [(dict(q=6, ell=5), ValueError), (dict(q=9, ell=3), ValueError)],
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_refuses_bad_input_and_assignment(name):
    record, refused = RECORDS[name]
    assert type(record).__name__ == name
    assert isinstance(record, tuple)
    assert copy.copy(record) == record
    for kwargs, error in refused:
        with pytest.raises(error):
            type(record)(**kwargs)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Nor fractions, which sym_chars imports only inside the functions that use Fraction.
    code = ("import sys, blockcraft.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
