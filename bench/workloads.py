"""The four benchmark workloads.

Each workload is set up once per repetition of `setup`, then runs whole
rounds: a round is a fixed list of operations, the same in every round
of every run, so the share of failed operations never depends on the
seed or on how many rounds fit in the run. The seed only orders the
operations of a round. A round returns timing samples (work done,
seconds) and the failures it saw; the program is called only through
its modules (`flashtrack.cli`, `flashtrack.codec`, `flashtrack.scenario`),
so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass, field

import oracle
import scenes


@dataclass
class Round:
    attempted: int = 0
    failures: list = field(default_factory=list)
    # (operation key, work units, seconds) per timed operation; the
    # same keys come back in every round
    samples: list = field(default_factory=list)


class CodebookReport:
    """`flashtrack codebook report --bits 7..14`, one pass per operation."""

    name = "codebook-report"
    unit = "report passes"
    bits = range(7, 15)
    setup_reps = 1

    def __init__(self, ft, seed: int):
        self.ft = ft
        del seed  # the report is a pure function of the bit range

    def setup(self) -> None:
        self.argv = ["codebook", "report", "--bits", f"{self.bits[0]}..{self.bits[-1]}"]

    def round(self) -> Round:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.ft.cli.main(self.argv)
        dt = time.perf_counter() - t0
        out = Round(attempted=1, samples=[("pass", 1, dt)])
        if code != 0:
            out.failures.append(f"exit code {code}")
        else:
            problems = oracle.check_report(json.loads(buf.getvalue()), self.bits)
            out.failures.extend(problems[:1])
        return out

    def final_checks(self) -> Round:
        """Claim sets of every book the report covers, once per run."""
        out = Round()
        cb = self.ft.codebook
        for n in self.bits:
            for robust, gen in ((False, cb.generate_initial_codebook), (True, cb.generate_robust_codebook)):
                book, lut = gen(n)
                words = [str(w) for w in book.words]
                problems = oracle.check_book(n, words, lut.entries, robust)
                out.attempted += 1
                if problems:
                    out.failures.append(problems[0])
        return out


class LockSweep:
    """Every word, phase and single flip/dup/del of the robust books, n=13..16.

    A stream is four clean cycles of one word from one phase with one
    error at position n+pos; it is pushed bit by bit through
    `StreamDecoder.push` until the decoder locks. One chunk (all the
    streams of one word) is one timed sample.
    """

    name = "lock-sweep"
    unit = "bits"
    bits = range(13, 17)
    setup_reps = 3

    def __init__(self, ft, seed: int):
        self.ft = ft
        self.seed = seed

    def setup(self) -> None:
        self.books = {}
        for n in self.bits:
            book, lut = self.ft.codebook.generate_robust_codebook(n)
            if len(book) != oracle.ROBUST_SIZES[n]:
                raise ValueError(f"robust book n={n} has {len(book)} words")
            self.books[n] = ([w.bits for w in book.words], lut)
        self.chunks = [(n, ident) for n in self.bits for ident in range(1, len(self.books[n][0]) + 1)]
        random.Random(self.seed).shuffle(self.chunks)

    @staticmethod
    def streams(word: tuple, n: int):
        for phase in range(n):
            clean = [word[(phase + i) % n] for i in range(4 * n)]
            for kind, pos in itertools.product(("flip", "dup", "del"), range(n)):
                bits = list(clean)
                if kind == "flip":
                    bits[n + pos] ^= 1
                elif kind == "dup":
                    bits.insert(n + pos, bits[n + pos])
                else:
                    del bits[n + pos]
                yield (phase, kind, pos), bits

    def round(self) -> Round:
        out = Round()
        decoder_cls = self.ft.codec.StreamDecoder
        for n, ident in self.chunks:
            words, lut = self.books[n]
            cases = list(self.streams(words[ident - 1], n))
            locked = []
            pushed = 0
            t0 = time.perf_counter()
            for _, bits in cases:
                decoder = decoder_cls(lut)
                got = 0
                for b in bits:
                    state = decoder.push(b)
                    pushed += 1
                    if state.locked:
                        got = state.identifier
                        break
                locked.append(got)
            dt = time.perf_counter() - t0
            out.samples.append(((n, ident), pushed, dt))
            out.attempted += len(cases)
            for (case, _), got in zip(cases, locked):
                if got != ident:
                    phase, kind, pos = case
                    out.failures.append(
                        f"n={n} id={ident} phase={phase} {kind}@{pos} locked {got or 'nothing'}"
                    )
        return out


class Simulate:
    """`simulate` path: from_dict, run, to_json on a fixed pool of scenarios.

    A fresh config is built for every call, because `run` writes the
    identifiers it assigns back into its config. The timed sample is
    one call; its work is the number of reported poses that pass the
    oracle's check.
    """

    unit = "correct fixes"
    setup_reps = 1

    def __init__(self, ft, seed: int):
        self.ft = ft
        self.seed = seed

    def pool(self) -> list[dict]:
        raise NotImplementedError

    def setup(self) -> None:
        raws = self.pool()
        random.Random(self.seed).shuffle(raws)
        self.cases = [(raw, oracle.ScenarioOracle(raw)) for raw in raws]

    def round(self) -> Round:
        out = Round()
        sc = self.ft.scenario
        for raw, truth in self.cases:
            t0 = time.perf_counter()
            text = sc.run(sc.ScenarioConfig.from_dict(raw)).to_json()
            dt = time.perf_counter() - t0
            verdict = truth.check(json.loads(text))
            out.samples.append((raw["seed"], verdict["good_fixes"], dt))
            out.attempted += verdict["frames_checked"] + verdict["flashers"]
            tag = f"seed={raw['seed']}"
            out.failures.extend(f"{tag} frame {f} fix" for f in verdict["failed_frames"])
            out.failures.extend(f"{tag} flasher {k} locked wrong" for k in verdict["wrong_lock_flashers"])
        return out


class CubeTrack(Simulate):
    name = "cube-track"

    def pool(self) -> list[dict]:
        return [scenes.cube()]


class RoomIntensity(Simulate):
    name = "room-intensity"
    noise_seeds = (1, 2, 29)

    def pool(self) -> list[dict]:
        return [scenes.room(s) for s in self.noise_seeds]


WORKLOADS = {w.name: w for w in (CodebookReport, LockSweep, CubeTrack, RoomIntensity)}
