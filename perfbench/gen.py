"""Seeded inputs for the perfbench workloads.

Every input the benchmark feeds the simulator comes from here, as a
pure function of the workload seed: the same seed gives the same bytes.

  python3 perfbench/gen.py --seed N --out DIR   write every input for seed N
  python3 perfbench/gen.py --self-test          check the same seed gives
                                                the same bytes

Decks whose tables are checked against stored references (chain, ring,
corner) come from finite catalogues, so that perfbench/refs/ can hold a
reference for each: the seed picks the catalogue entries a run uses.
"""

import argparse
import hashlib
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIX_DIR = os.path.join(HERE, "mix")

MASK = (1 << 64) - 1

CHAIN_STAGES = 1000
LADDER = (100, 300, 1000)
CHAIN_VARIANTS = 8
RING_STAGES = 51
RING_VARIANTS = 8
# corner catalogue: T strata x E_F strata, one jittered corner per cell
T_RANGE = (150.0, 450.0)
EF_RANGE = (-0.5, 0.0)
T_STRATA = 8
EF_STRATA = 6
# cntd_mix request blocks: every committed good deck and one variant
# of every .param line of them once (91 %), one medium deck (3 %) and
# two malformed decks (6 %)
MIX_FACTORS = ("0.5", "0.8", "1.25", "2")
MIX_MEDIUM = 1
MIX_BAD = 2
MIX_BLOCKS = 50
RING21_VARIANTS = 8
MIX_MEDIUM_VARIANTS = 2

class Rng:
    """splitmix64 keyed by a tuple, so every stream is reproducible on any
    Python version and independent of the order streams are drawn."""

    def __init__(self, *key):
        digest = hashlib.sha256(repr(key).encode()).digest()
        self.state = int.from_bytes(digest[:8], "little")

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def uniform(self, a, b):
        return a + (b - a) * (self.next() >> 11) / float(1 << 53)

    def below(self, n):
        return self.next() % n

    def choice(self, xs):
        return xs[self.below(len(xs))]

    def shuffle(self, xs):
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        return xs


def _deck(lines):
    return "\n".join(lines) + "\n"


INVERTER_CELL = [
    ".subckt inv in out vdd cl=1f",
    "MP out in vdd PCNFET l=100",
    "MN out in 0 CNFET l=100",
    "CL out 0 {cl}",
    ".ends",
]


def chain_deck(stages, variant):
    """Hierarchical inverter chain.  Most stages load their output with
    1 fF; a seeded tenth take 0.7 or 1.4 fF, so the parser compiles three
    subcircuit patterns and shares them across the rest."""
    rng = Rng("chain", variant)
    lines = [
        "perfbench chain_tran: %d-stage CNFET inverter chain, variant %d"
        % (stages, variant)
    ] + INVERTER_CELL + [
        "VDD vdd 0 0.6",
        "VIN n0 0 PULSE(0 0.6 0.05n 0.02n 0.02n 1n 2n)",
    ]
    for i in range(1, stages + 1):
        u = rng.below(10)
        cl = "1.4f" if u == 9 else "0.7f" if u == 8 else "1f"
        lines.append("X%d n%d n%d vdd inv cl=%s" % (i, i - 1, i, cl))
    lines += [
        ".tran 0.02n 0.5n",
        ".print v(n1) v(n2) v(n4) v(n%d)" % stages,
        ".end",
    ]
    return _deck(lines)


def ring_deck(variant, stages=RING_STAGES, tstop="3n"):
    """Ring oscillator kicked by a current pulse.  The per-stage loads are
    a seeded permutation of one fixed multiset, so every variant has the
    same total load and oscillates at nearly the same period."""
    rng = Rng("ring", stages, variant)
    loads = rng.shuffle([("0.1f", "0.15f", "0.2f")[i % 3] for i in range(stages)])
    lines = [
        "perfbench ring: %d-stage CNFET ring oscillator, variant %d"
        % (stages, variant)
    ] + INVERTER_CELL + [
        "VDD vdd 0 0.6",
        "IKICK n0 0 PULSE(0 2u 0 1p 1p 0.3n 1)",
    ]
    for i in range(stages):
        lines.append(
            "X%d n%d n%d vdd inv cl=%s" % (i + 1, i, (i + 1) % stages, loads[i])
        )
    lines += [
        ".tran 2p %s" % tstop,
        ".print v(n0) v(n%d) v(n%d)" % (stages // 3, 2 * stages // 3),
        ".end",
    ]
    return _deck(lines)


def corner_catalogue():
    """One (T, E_F) corner per stratum cell of the paper's ranges,
    jittered inside the cell (so off the paper's 3 x 3 lattice)."""
    rng = Rng("corners")
    t_w = (T_RANGE[1] - T_RANGE[0]) / T_STRATA
    ef_w = (EF_RANGE[1] - EF_RANGE[0]) / EF_STRATA
    out = []
    for ti in range(T_STRATA):
        for ei in range(EF_STRATA):
            t = T_RANGE[0] + t_w * (ti + rng.uniform(0.1, 0.9))
            ef = EF_RANGE[0] + ef_w * (ei + rng.uniform(0.1, 0.9))
            out.append((round(t, 2), round(ef, 4)))
    return out


def corner_deck(index):
    t, ef = corner_catalogue()[index]
    card = "temp=%g ef=%g optimise=1" % (t, ef)
    return _deck([
        "perfbench corner_sweep: inverter VTC at T=%g K, EF=%g eV" % (t, ef),
        "VDD vdd 0 0.6",
        "VIN in 0 0",
        "MP out in vdd PCNFET " + card,
        "MN out in 0 CNFET " + card,
        ".dc VIN 0 0.6 0.0005",
        ".print v(out) id(MN)",
        ".end",
    ])


def corner_picks(seed):
    """Half the catalogue: for each E_F stratum and each pair of adjacent
    T strata, one of the pair, in seeded order.  Every run so covers the
    whole of both ranges at the same density."""
    rng = Rng("corner_sweep", seed)
    picks = [(2 * tp + rng.below(2)) * EF_STRATA + ei
             for tp in range(T_STRATA // 2) for ei in range(EF_STRATA)]
    return rng.shuffle(picks)


def bias_grid(seed):
    """Held-out bias points inside the paper's ranges (V_G 0.1-0.6 V,
    V_DS 0-0.6 V): gate biases at the centres of the 50 mV cells, 25 mV
    off the paper's gate lattice, and one seeded drain bias in each
    75 mV cell, at least 3 mV off its 10 mV drain lattice.  The gate
    biases are not jittered: the error peaks sharply near 0.22 V, and a
    seeded gate bias there would move the metric more than the code
    does."""
    rng = Rng("bias", seed)
    vgs = [0.125 + 0.05 * k for k in range(10)]
    vds = []
    for j in range(8):
        cell = int(60 * (j + rng.uniform(0.0, 1.0)) / 8)
        vds.append(0.01 * cell + 0.005 + rng.uniform(-0.002, 0.002))
    return vgs, vds


# ---------------------------------------------------------------------
# cntd_mix
# ---------------------------------------------------------------------

def _param_lines(text):
    """(line number, name, value) of every `.param NAME = VALUE` line."""
    out = []
    for i, line in enumerate(text.split("\n")):
        m = re.match(r"\.param\s+(\w+)\s*=\s*(.+?)\s*$", line)
        if m:
            out.append((i, m.group(1), m.group(2)))
    return out


def _scaled(text, line, factor):
    lines = text.split("\n")
    _, name, value = next(p for p in _param_lines(text) if p[0] == line)
    lines[line] = ".param %s = (%s) * %s" % (name, value, factor)
    return "\n".join(lines)


def mix_catalogue():
    """Every deck cntd_mix can send, as (name, kind, path, text) tuples:
    the committed good decks ("small") and malformed ones ("bad"), sent
    from perfbench/mix/ as they are (text None); for every `.param` line
    of a good deck, one parameter variant per factor of MIX_FACTORS
    ("variant"); and RING21_VARIANTS short ring-21 transients
    ("medium").  perfbench/refs/mix/ holds a reference for each."""
    good, bad = [], []
    for f in sorted(os.listdir(MIX_DIR)):
        if f.endswith(".cir"):
            path = os.path.join("perfbench", "mix", f)
            (bad if f.startswith("bad_") else good).append((f[:-4], path))
    cat = [(name, "small", path, None) for name, path in good]
    for name, path in good:
        with open(os.path.join(MIX_DIR, name + ".cir")) as fh:
            text = fh.read()
        for line, _, _ in _param_lines(text):
            for k, factor in enumerate(MIX_FACTORS):
                cat.append(("%s_L%d_f%d" % (name, line + 1, k), "variant", None,
                            _scaled(text, line, factor)))
    for v in range(RING21_VARIANTS):
        cat.append(("ring21_%d" % v, "medium", None, ring_deck(v, stages=21, tstop="0.2n")))
    cat += [(name, "bad", path, None) for name, path in bad]
    return cat


def mix_decks(seed):
    """The seed's cntd_mix deck pool, drawn from the catalogue: every
    committed deck, one seeded factor for every `.param` line, and
    MIX_MEDIUM_VARIANTS consecutive ring-21 decks."""
    ring0 = seed % RING21_VARIANTS
    rings = {"ring21_%d" % ((ring0 + k) % RING21_VARIANTS) for k in range(MIX_MEDIUM_VARIANTS)}
    decks = []
    for name, kind, path, text in mix_catalogue():
        if kind == "variant":
            stem, k = name.rsplit("_f", 1)
            if int(k) != Rng("mix_variant", seed, stem).below(len(MIX_FACTORS)):
                continue
        elif kind == "medium" and name not in rings:
            continue
        decks.append((name, kind, path, text))
    return decks


def mix_sequence(seed, decks):
    """Request order: MIX_BLOCKS blocks, each sending every small deck
    and variant once, and the next MIX_MEDIUM medium and MIX_BAD bad
    decks of a seeded rotation, shuffled.  Every seed so has the same
    share of each kind, and the repeats across blocks hit the caches."""
    rng = Rng("mix_sequence", seed)
    by_kind = {}
    for i, (_, kind, _, _) in enumerate(decks):
        by_kind.setdefault(kind, []).append(i)
    medium = rng.shuffle(by_kind["medium"][:])
    bad = rng.shuffle(by_kind["bad"][:])
    seq = []
    for b in range(MIX_BLOCKS):
        block = by_kind["small"] + by_kind["variant"]
        block += [medium[(b * MIX_MEDIUM + k) % len(medium)] for k in range(MIX_MEDIUM)]
        block += [bad[(b * MIX_BAD + k) % len(bad)] for k in range(MIX_BAD)]
        seq += rng.shuffle(block)
    return seq


# ---------------------------------------------------------------------
# Writing a workload's inputs
# ---------------------------------------------------------------------

def _write(path, text):
    with open(path, "w") as f:
        f.write(text)
    return path


def write_grid(out, seed):
    vgs, vds = bias_grid(seed)
    return _write(
        os.path.join(out, "bias_grid.txt"),
        ",".join("%.6f" % v for v in vgs) + "\n" + ",".join("%.6f" % v for v in vds) + "\n",
    )


def write_workload(workload, seed, out):
    """Write the inputs of one workload under directory `out` and return
    a description of them (paths relative to the current directory)."""
    os.makedirs(out, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "grid": write_grid(out, seed)}
    if workload == "chain_tran":
        chain_variant = seed % CHAIN_VARIANTS
        spec["ladder"] = [
            (n, _write(os.path.join(out, "chain%d.cir" % n), chain_deck(n, chain_variant)))
            for n in LADDER
        ]
        spec["decks"] = [(("chain", chain_variant), dict(spec["ladder"])[CHAIN_STAGES])]
    elif workload == "ring_tran":
        v = seed % RING_VARIANTS
        spec["decks"] = [(("ring", v), _write(os.path.join(out, "ring.cir"), ring_deck(v)))]
    elif workload == "corner_sweep":
        spec["decks"] = [
            (("corner", i), _write(os.path.join(out, "corner%d.cir" % i), corner_deck(i)))
            for i in corner_picks(seed)
        ]
    elif workload == "cntd_mix":
        decks = mix_decks(seed)
        spec["pool"] = [
            (name, kind, path or _write(os.path.join(out, name + ".cir"), text))
            for name, kind, path, text in decks
        ]
        spec["sequence"] = mix_sequence(seed, decks)
    else:
        raise ValueError("unknown workload %r" % workload)
    return spec


WORKLOADS = ("chain_tran", "ring_tran", "corner_sweep", "cntd_mix")


def _digest_tree(root):
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def self_test(scratch):
    """The same seed must give the same bytes; different seeds must not."""
    import shutil
    digests = {}
    for seed in (1, 2, 1):
        for w in WORKLOADS:
            d = os.path.join(scratch, "selftest", w)
            shutil.rmtree(d, ignore_errors=True)
            spec = write_workload(w, seed, d)
            key = (w, seed)
            got = (_digest_tree(d), repr(spec).replace(d, "<out>"))
            if key in digests and digests[key] != got:
                raise SystemExit("gen self-test: %s seed %d is not reproducible" % key)
            digests[key] = got
    for w in WORKLOADS:
        if digests[(w, 1)] == digests[(w, 2)]:
            raise SystemExit("gen self-test: %s ignores its seed" % w)
    shutil.rmtree(os.path.join(scratch, "selftest"), ignore_errors=True)
    print("gen self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", default=".perfbench/gen")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test(args.out)
        return
    if args.seed is None:
        ap.error("--seed is required")
    for w in WORKLOADS:
        write_workload(w, args.seed, os.path.join(args.out, w))
    print("wrote inputs for seed %d under %s" % (args.seed, args.out))


if __name__ == "__main__":
    sys.exit(main())
