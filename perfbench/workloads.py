"""The three benchmark workloads: inputs from a seed, one op, its check.

Each workload cycles through ``cycle`` distinct op inputs derived from the
workload seed.  Runs end on a cycle boundary, so per-op counts averaged over
a run do not depend on how many ops the run completed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys

SEARCH_BUDGET = 100     # objective evaluations per config per op
CLI_OPT_BUDGET = 40     # objective evaluations of the cli optimize command
TOL = 1e-9


def _seeds(seed: int, shape):
    import numpy as np

    return np.random.default_rng(seed).integers(0, 2**31 - 1, size=shape)


class Search:
    """Criterion-10 configs (a) and (b), one short seeded search each."""

    name = "search"
    cycle = 4

    def build(self, seed: int, workdir):
        import numpy as np
        import teleportlab as tl

        mu = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
        self.ch = tl.depolarizing(0.5)
        self.bases = (tl.zero_parameterization(2, 2, "none"),
                      tl.zero_parameterization(2, 2, "full", mu_fixed=mu))
        self.seeds = _seeds(seed, (self.cycle, 2))

    def op(self, i: int):
        import teleportlab as tl

        seeds = self.seeds[i % self.cycle]
        return [
            tl.optimize(self.ch, base, tl.OptimizationConfig(
                evaluation_budget=SEARCH_BUDGET, restarts=1, seed=int(s)))
            for base, s in zip(self.bases, seeds)
        ]

    def evaluations(self, results) -> int:
        return sum(r.evaluations_used for r in results)

    def check(self, i: int, results):
        import numpy as np
        import teleportlab as tl

        psi0 = tl.maximally_entangled(2)
        for label, r in zip("ab", results):
            direct = tl.effective_choi(r.best_protocol, self.ch).matrix
            recomputed = float(np.real(psi0.conj() @ direct @ psi0))
            if abs(recomputed - r.best_fidelity) > TOL:
                return (f"config ({label}): best_fidelity {r.best_fidelity!r} "
                        f"!= effective_choi route {recomputed!r}")
            if r.best_fidelity > 0.999:
                return f"config ({label}): best_fidelity {r.best_fidelity!r} > 0.999"
        return None


class Simulate:
    """Dense N=3, P=3, M=9 protocol through a maximal-rank random channel."""

    name = "simulate"
    cycle = 4

    def build(self, seed: int, workdir):
        import teleportlab as tl

        self.inputs = [
            (tl.random_protocol(3, 3, 9, int(s[0])),
             tl.random_channel(3, 9, int(s[1])),
             tl.random_state(3, int(s[2])))
            for s in _seeds(seed, (self.cycle, 3))
        ]

    def op(self, i: int):
        import teleportlab as tl

        proto, ch, rho = self.inputs[i % self.cycle]
        out = tl.teleport(rho, ch)
        tl.apply_protocol(proto, ch, rho)
        controlled = tl.control_map(proto, tl.choi(ch))
        direct = tl.effective_choi(proto, ch)
        tl.proof_report(proto)
        return out, controlled, direct

    def check(self, i: int, result):
        import numpy as np
        import teleportlab as tl

        out, controlled, direct = result
        rho = self.inputs[i % self.cycle][2]
        fid = tl.fidelity(out, rho)
        if fid < 1.0 - TOL:
            return f"teleport fidelity {fid!r} < 1 - {TOL}"
        gap = float(np.linalg.norm(controlled.matrix - direct.matrix))
        if gap > TOL:
            return f"control_map and effective_choi differ by {gap!r}"
        return None


class Cli:
    """Round-robin of five CLI commands, one child process at a time."""

    name = "cli"
    cycle = 5
    child_env = None  # environment of the children; None inherits ours

    def build(self, seed: int, workdir):
        import teleportlab as tl
        from teleportlab.channels import save_channel

        s = _seeds(seed, 5)
        p = 0.1 + 0.5 * float(s[0]) / 2**31
        channel_file = workdir / "channel.json"
        save_channel(tl.random_channel(3, 9, int(s[1])), channel_file)
        config_file = workdir / "optimize.json"
        config_file.write_text(json.dumps({
            "n": 2, "p": 2, "measured": "full",
            "mu_fixed": [math.cos(math.pi / 8), math.sin(math.pi / 8)],
            "evaluation_budget": CLI_OPT_BUDGET, "restarts": 1,
            "seed": int(s[2]),
        }))
        dep = ["--depolarizing", repr(p)]
        self.commands = [
            ("channel-info", ["channel-info", str(channel_file)]),
            ("teleport", ["teleport", *dep, "--dim", "3",
                          "--random", str(int(s[3]))]),
            ("protocol-verify-qt3", ["protocol-verify", "--qt", "3", *dep,
                                     "--dim", "3"]),
            ("protocol-verify-qt2", ["protocol-verify", "--qt", "2", *dep]),
            ("optimize", ["optimize", *dep, str(config_file)]),
        ]

    def command_name(self, i: int) -> str:
        return self.commands[i % self.cycle][0]

    def op(self, i: int):
        """One `python -m teleportlab.cli` child; waits for it to exit."""
        args = self.commands[i % self.cycle][1]
        proc = subprocess.run(
            [sys.executable, "-m", "teleportlab.cli", *args],
            env=self.child_env, capture_output=True, text=True, check=False,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def op_in_process(self, i: int):
        """The same command run through `teleportlab.cli.main` in-process."""
        from teleportlab.cli import main

        args = self.commands[i % self.cycle][1]
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf):
            try:
                main(args, prog_name="teleportlab", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue(), ""

    def check(self, i: int, result):
        code, stdout, stderr = result
        name = self.command_name(i)
        if code != 0:
            return f"{name}: exit code {code}: {stderr.strip()[-300:]}"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"{name}: stdout is not JSON ({exc})"
        if name.startswith("protocol-verify"):
            out = doc["outputs"]
            if not out["consistency_gap"] <= TOL:
                return f"{name}: consistency_gap {out['consistency_gap']!r}"
            if not out["residual_to_target"] < TOL:
                return f"{name}: residual_to_target {out['residual_to_target']!r}"
        return None


WORKLOADS = {"search": Search, "simulate": Simulate, "cli": Cli}
