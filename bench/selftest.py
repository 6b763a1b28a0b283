"""Tests of the benchmark's own output checks.

    python3 bench/selftest.py

Each check must accept the program's real output on the smoke inputs and
reject that output once it is corrupted.  The outputs come from running the
`rhoslice` command in src/ on the small documents of the smoke round.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
OPS = {op.label: op for op in workloads.smoke_round()}


def run_cli(op) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    work = ROOT / "bench" / "work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        doc = Path(tmp) / "doc.json"
        doc.write_text(json.dumps(op.document))
        proc = subprocess.run(
            [sys.executable, "-m", "rhoslice.cli", op.command, str(doc),
             *op.options], capture_output=True, text=True, env=env,
            timeout=120)
    return proc.returncode, proc.stdout


class CheckCase:
    """Mixed into one TestCase per smoke operation."""

    label = ""

    @classmethod
    def setUpClass(cls):
        cls.op = OPS[cls.label]
        cls.code, stdout = run_cli(cls.op)
        cls.output = json.loads(stdout)

    def accepts(self, output: dict, code: int | None = None) -> None:
        checks.check(self.op, self.code if code is None else code,
                     json.dumps(output))

    def rejects(self, output: dict, code: int | None = None) -> None:
        with self.assertRaises(checks.CheckError):
            self.accepts(output, code)

    def corrupted(self) -> dict:
        return copy.deepcopy(self.output)

    def test_real_output_passes(self):
        self.accepts(self.output)


class ObstructedTest(CheckCase, unittest.TestCase):
    label = "smoke-numeric"

    def test_flipped_verdict(self):
        out = self.corrupted()
        out["verdict"] = "INCONCLUSIVE"
        self.rejects(out, code=2)
        self.rejects(out, code=0)

    def test_flipped_exit_code(self):
        self.rejects(self.output, code=2)
        self.rejects(self.output, code=1)

    def test_cells_may_be_omitted(self):
        out = self.corrupted()
        del out["cells"]
        self.accepts(out)


class InconclusiveTest(CheckCase, unittest.TestCase):
    label = "smoke-shared"

    def test_flipped_verdict(self):
        out = self.corrupted()
        out["verdict"] = "OBSTRUCTED"
        out["witnesses"] = []
        self.rejects(out, code=0)

    def test_flipped_exit_code(self):
        self.rejects(self.output, code=0)

    def test_nonzero_witness(self):
        out = self.corrupted()
        out["witnesses"][0]["rho"]["coefficients"] = {"x": "1"}
        self.rejects(out)
        out = self.corrupted()
        out["witnesses"][-1]["rho"]["constant"] = "1/7"
        self.rejects(out)

    def test_no_two_slot_witness(self):
        out = self.corrupted()
        for w in out["witnesses"]:
            w["support"] = w["support"][:1]
        self.rejects(out)


class DeepTest(CheckCase, unittest.TestCase):
    label = "deep-n2"

    def test_constant_off_the_trefoil_lattice(self):
        out = self.corrupted()
        cell = next(c for c in out["cells"] if c["rho"]["constant"] != "0")
        cell["rho"]["constant"] = str(Fraction(cell["rho"]["constant"]) / 2)
        self.rejects(out)

    def test_uniform_flag(self):
        out = self.corrupted()
        out["uniform_in_c"] = False
        self.rejects(out)

    def test_misreported_vanishing(self):
        out = self.corrupted()
        out["cells"][0]["nonvanishing"] = not out["cells"][0]["nonvanishing"]
        self.rejects(out)


class InfoTest(CheckCase, unittest.TestCase):
    label = "smoke-info"

    def test_wrong_alexander_polynomial(self):
        out = self.corrupted()
        coeffs = out["alexander_polynomial"]["coefficients"]
        coeffs["1"] = str(Fraction(coeffs.get("1", "0")) + 1)
        self.rejects(out)

    def test_shifted_alexander_polynomial_passes(self):
        out = self.corrupted()
        coeffs = out["alexander_polynomial"]["coefficients"]
        out["alexander_polynomial"]["coefficients"] = {
            str(int(e) + 3): c for e, c in coeffs.items()}
        self.accepts(out)

    def test_wrong_annihilator(self):
        out = self.corrupted()
        ann = out["module"]["summands"][0]["annihilator"]["coefficients"]
        ann["0"] = str(Fraction(ann.get("0", "0")) + 1)
        self.rejects(out)

    def test_alexander_coefficients_of_the_trefoil(self):
        # det(tV - V^T) = t^2 - t + 1
        self.assertEqual(checks.alexander_coefficients([[-1, 1], [0, -1]]),
                         [1, -1, 1])


class SignatureTest(CheckCase, unittest.TestCase):
    label = "smoke-signature"

    def test_shifted_rho0(self):
        out = self.corrupted()
        rho = out["rho0"]
        if "exact" in rho:
            rho["exact"] = str(Fraction(rho["exact"]) + Fraction(1, 100))
        else:
            rho["interval"] = [str(Fraction(x) + Fraction(1, 100))
                               for x in rho["interval"]]
        self.rejects(out)

    def test_trefoil_integral(self):
        value, err = checks.signature_integral(workloads.TREFOIL["right"])
        self.assertLessEqual(abs(value - float(workloads.RHO_TREFOIL_RIGHT)),
                             err)


if __name__ == "__main__":
    unittest.main()
