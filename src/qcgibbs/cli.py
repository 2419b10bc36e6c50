"""Command-line interface: spectra, thermodynamic tables, claim checks, the game.

Each subcommand reads the settings COMMAND_SETTINGS names, as flags over an
optional flat key=value config file (flags win), plus its own COMMAND_FLAGS,
and refuses any other. One reader, read_argv, takes argv from these tables
(no argparse), and each flag's text is parsed by its setting's parser, as a
config value is, and a parse error (an empty path, a count or dimension
under 1) names the flag or the key. Usage, help and
usage errors are written from the same tables, and an unread flag is
refused under the subcommand's usage. Relative output paths are resolved
against QCGIBBS_OUTDIR when set. `table` and `verify` (through
verify.run_claims) read their points through ModelFamily.sweep: a table is
one point set, one thermo_point call per row, written through
ensemble.thermo_table_text. `spectrum` prints and `game` plays the levels
at one h (ModelFamily.spectrum), as deep as `spectrum --count` and `game
--minors` ask (ModelFamily.count_depth); `game` plays at the Gibbs state of
one (beta, h), on those levels or on --levels (or --levels-file, read by
spectrum.read_levels), and is the only command that imports qcgibbs.game.
Exit codes: 0 success, 2 usage or validation, 3 numerical failure
(truncation, quadrature, accuracy, overflow; a failed grid point too), 4 a
theorem-class claim reported Violated.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Callable
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .ensemble import BoltzmannPass, thermo_point, thermo_table_text
from .errors import NUMERICAL_ERRORS
from .models import ModelFamily, box_family, homogeneous_family, tabulated_family
from .potential import load_tabulated_csv
from .spectrum import Spectrum, SpectrumSource, read_levels, spectrum_text
from .util import fmt17, log_grid
from .verify import (
    THEOREM_CLAIMS,
    CLAIM_CHECKS,
    Status,
    reports_to_json,
    run_claims,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATED = 4


def _parse_grid(text: str) -> tuple[float, ...]:
    """Either a comma list '0.5,1,2' or a log range 'lo:hi:per_decade'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"grid range must be lo:hi[:per_decade], got {text!r}")
        lo, hi = float(parts[0]), float(parts[1])
        per_decade = int(parts[2]) if len(parts) == 3 else 9
        return tuple(float(x) for x in log_grid(lo, hi, per_decade))
    return tuple(float(x) for x in text.split(","))


def _path(text: str) -> str:
    """A file path: not the empty one, which names the working directory."""
    if not text:
        raise ValueError("an empty path names no file")
    return text


def _positive_int(text: str) -> int:
    """An integer of at least 1: a dimension or a level count."""
    n = int(text)
    if n < 1:
        raise ValueError(f"must be at least 1, got {n}")
    return n


class Setting:
    """A run setting or flag: its flag spellings, the parser of its text (a
    flag's and a config value's alike; None for a switch, which takes no
    text), its value where not given, its help, and whether a run must give it."""

    __slots__ = ("flags", "parse", "default", "help", "required")

    def __init__(self, flags: tuple[str, ...], parse: Callable[[str], object] | None,
                 default: object = None, help: str | None = None, required: bool = False):
        self.flags, self.parse, self.default = flags, parse, default
        self.help, self.required = help, required


# every setting, under its config key; where beta or h is not given, table
# and game use 1 and verify each claim's default grid
SETTINGS = {
    "model": Setting(("--model",), str, "box", "box, homogeneous or tabulated"),
    "dimension": Setting(("--N",), _positive_int, 1, "coordinate dimension"),
    "lengths": Setting(("--L",), lambda text: tuple(float(x) for x in text.split(",")), (1.0,),
                       "comma list of box lengths"),
    "nu": Setting(("--nu",), float, 2.0, "power-law exponent"),
    "mass": Setting(("--mass",), float, 1.0),
    "table": Setting(("--table",), str, None, "x,V CSV for tabulated potentials"),
    "beta": Setting(("--beta",), _parse_grid, None, "comma list or lo:hi[:per_decade] log range"),
    "h": Setting(("--h",), _parse_grid, None, "comma list or lo:hi[:per_decade] log range"),
    "count": Setting(("--count",), _positive_int, 10, "number of levels"),
    "max_levels": Setting(("--max-levels",), int, 2_000_000),
    "format": Setting(("--format",), str, "csv", "csv or json"),
    "output": Setting(("--output", "-o"), _path),
    "seed": Setting(("--seed",), int, 0),
}
MODEL_SETTINGS = ("model", "dimension", "lengths", "nu", "mass", "table", "max_levels")
# the settings each subcommand reads; read_argv refuses any other flag, and
# parse_config any other key (game reads seed and output only with --ascend)
COMMAND_SETTINGS = {
    "spectrum": (*MODEL_SETTINGS, "h", "count", "output"),
    "table": (*MODEL_SETTINGS, "beta", "h", "format", "output"),
    "verify": (*MODEL_SETTINGS, "beta", "h", "output"),
    "game": (*MODEL_SETTINGS, "beta", "h", "seed", "output"),
}
# the flags only one subcommand takes, which no config file sets
COMMAND_FLAGS = {
    "spectrum": {},
    "table": {},
    "verify": {
        "claims": Setting(("--claims",), lambda text: [c.strip() for c in text.split(",")
                                                      if c.strip()],
                          None, "comma list from: " + ",".join(sorted(CLAIM_CHECKS)), True),
    },
    "game": {
        "levels": Setting(("--levels",), lambda text: [float(x) for x in text.split(",")], None,
                          "comma list of ascending level energies, in place of the model's"),
        "levels_file": Setting(("--levels-file",), _path, None,
                               "file with one level per line, or the n,E output of spectrum"),
        "minors": Setting(("--minors",), int, 0, "report minor signs up to this order"),
        "ascend": Setting(("--ascend",), None, False,
                          "run the gradient ascent from a random start"),
    },
}


def _settings(texts: dict, command: str, flags=()) -> SimpleNamespace:
    """Every setting and flag of `command`: parsed from its text in `texts`
    (True for a switch) where given, else its default; `given` names the
    keys `texts` holds. A parse error names the flag of a key in `flags`,
    else the config key."""
    table = {**SETTINGS, **COMMAND_FLAGS[command], "config": _CONFIG}
    cfg = SimpleNamespace(**{key: s.default for key, s in table.items()}, given=set(texts))
    for key, text in texts.items():
        parse = table[key].parse
        try:
            setattr(cfg, key, text if parse is None else parse(text))
        except ValueError as exc:
            where = table[key].flags[0] if key in flags else f"config key {key!r}"
            raise ValueError(f"{where}: {exc}") from None
    return cfg


def _config_texts(text: str, command: str) -> dict[str, str]:
    """The value text of each key of the flat key = value format ('#' starts
    a comment line), the last where a key repeats; refuses a key `command`
    does not read."""
    texts = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed config line: {raw!r}")
        key = key.strip()
        if key not in SETTINGS:
            raise ValueError(f"unknown config key: {key!r}")
        if key not in COMMAND_SETTINGS[command]:
            raise ValueError(f"{command} does not read config key {key!r}")
        texts[key] = value.strip()
    return texts


def parse_config(text: str, command: str) -> SimpleNamespace:
    """Every setting, read from the flat key = value format where `command`
    reads it, else its default; `given` names the keys the text set."""
    return _settings(_config_texts(text, command), command)


def _resolve_output(path_str: str | None) -> Path | None:
    """The output path, a relative one under QCGIBBS_OUTDIR where that is set."""
    if path_str is None:
        return None
    return Path(os.environ.get("QCGIBBS_OUTDIR") or ".") / path_str


def _build_family(cfg: SimpleNamespace) -> ModelFamily:
    if cfg.model in ("homogeneous", "tabulated") and cfg.dimension != 1:
        raise ValueError(
            f"{cfg.model} wells are one-dimensional, got --N {cfg.dimension} "
            "(N-dimensional radial power laws are an open item of ROADMAP.md)")
    if cfg.model == "box":
        lengths = cfg.lengths
        if len(lengths) == 1 and cfg.dimension > 1:
            lengths = lengths * cfg.dimension
        if len(lengths) != cfg.dimension:
            raise ValueError("number of lengths must match the dimension N")
        fam = box_family(lengths, cfg.mass)
    elif cfg.model == "homogeneous":
        fam = homogeneous_family(cfg.nu, cfg.mass)
    elif cfg.model == "tabulated":
        if not cfg.table:
            raise ValueError("tabulated model needs --table pointing at an x,V CSV")
        fam = tabulated_family(load_tabulated_csv(cfg.table, cfg.mass))
    else:
        raise ValueError(f"unknown model {cfg.model!r}; expected box, homogeneous, or tabulated")
    fam.level_cap = cfg.max_levels
    return fam


def _write_or_print(text: str, path: Path | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


# ---------------------------------------------------------------------------
# subcommands


def _at(point: dict) -> str:
    """Where a failed grid point of ModelFamily.sweep failed, and why."""
    return f"at beta={point['beta']:g}, h={point['h']:g}: {point['error']}"


def cmd_spectrum(cfg: SimpleNamespace) -> int:
    if len(cfg.h or ()) > 1:
        raise ValueError("spectrum reads one h")
    fam = _build_family(cfg)
    h = cfg.h[0] if cfg.h else 1.0
    spec = fam.spectrum(h, fam.count_depth(cfg.count, h))
    _write_or_print(spectrum_text(spec, cfg.count), _resolve_output(cfg.output))
    return EXIT_OK


def cmd_table(cfg: SimpleNamespace) -> int:
    fam = _build_family(cfg)
    betas, hs = cfg.beta or (1.0,), cfg.h or (1.0,)
    [out] = fam.sweep([(betas, hs, lambda p: thermo_point(p).row)])
    # the sweep runs h outer, the table beta outer
    cells = [c for j in range(len(betas)) for c in out[j::len(betas)]]
    failed = [c for c in cells if isinstance(c, dict)]
    text = thermo_table_text(cells, cfg.format) + ("\n" if cfg.format == "json" else "")
    _write_or_print(text, _resolve_output(cfg.output))
    if failed:
        print(f"numerical error: {_at(failed[0])}", file=sys.stderr)
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_verify(cfg: SimpleNamespace) -> int:
    fam = _build_family(cfg)
    reports = run_claims(fam, cfg.claims, cfg.beta, cfg.h)
    text = reports_to_json(reports) + "\n"
    out = _resolve_output(cfg.output)
    _write_or_print(text, out)
    table_stream = sys.stdout if out is not None else sys.stderr
    for r in reports:
        table_stream.write(
            f"{r.claim_id.value:10s} {fam.label:20s} {r.status.value:13s} "
            f"margin={r.worst_margin:.6g} tol={r.tolerance:.3g}\n"
        )
    failed = [f"{r.claim_id.value} {_at(f)}"
              for r in reports for f in r.notes.get("failed_points", ())]
    if failed:
        print(f"numerical error: {failed[0]}", file=sys.stderr)
    violated = any(r.status is Status.VIOLATED and r.claim_id in THEOREM_CLAIMS
                   for r in reports)
    return EXIT_VIOLATED if violated else EXIT_NUMERICAL if failed else EXIT_OK


def cmd_game(cfg: SimpleNamespace) -> int:
    if len(cfg.beta or ()) > 1 or len(cfg.h or ()) > 1:
        raise ValueError("game plays at one beta and one h")
    beta, h = (cfg.beta or (1.0,))[0], (cfg.h or (1.0,))[0]
    ascent_only = cfg.given & {"seed", "output"}
    if ascent_only and not cfg.ascend:
        raise ValueError(f"game reads {sorted(ascent_only)} only with --ascend")
    if cfg.levels is not None or cfg.levels_file is not None:
        named = cfg.given & {*MODEL_SETTINGS, "h"}
        if named:
            raise ValueError(f"game plays on --levels or on a model, not both: got {sorted(named)}")
        levels = (read_levels(Path(cfg.levels_file).read_text())[0]
                  if cfg.levels_file is not None else cfg.levels)
        spec = Spectrum(levels, 1.0, SpectrumSource.GIVEN)  # refuses an empty file
    else:
        fam = _build_family(cfg)
        lam = fam.lambda_min((beta,), (h,))
        if cfg.minors > 0:  # deep enough for minors below the level count
            lam = min(lam, fam.count_depth(cfg.minors + 1, h))
        spec = fam.spectrum(h, lam)
    from . import game as game_mod  # here: no other command plays the game

    gibbs = BoltzmannPass(spec, beta)
    lines = ["n,P", *(f"{i},{fmt17(pi)}" for i, pi in enumerate(gibbs.p, start=1)),
             f"F = {fmt17(gibbs.log_z)}", f"E = {fmt17(gibbs.e_q)}",
             f"S = {fmt17(gibbs.s_q)}"]
    if cfg.minors:
        same = np.flatnonzero(np.diff(spec.levels) == 0.0)
        if same.size:  # principal_minor_signs refuses them too, naming neither
            i, e = int(same[0]) + 1, fmt17(spec.levels[same[0]])
            raise ValueError(f"--minors needs distinct levels: E_{i} = E_{i + 1} = {e}")
        signs = game_mod.principal_minor_signs(spec.levels, -beta, cfg.minors)
        lines.append("minor_signs = " + ",".join("+" if s > 0 else "-" for s in signs))
    if cfg.ascend:  # before stdout: a refused or failed ascent leaves it empty
        rng = np.random.default_rng(cfg.seed)
        start = np.exp(rng.uniform(-1.0, 1.0, size=spec.count))
        result = game_mod.ascend(spec.levels, -beta, start)
        lines.append(f"ascent_iterations = {result.iterations}")
        out = _resolve_output(cfg.output)
        if out is not None:
            out.parent.mkdir(parents=True, exist_ok=True)
            game_mod.trace_to_csv(result.trace, out)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the command line: one reader, and usage and help texts, from the tables above


_COMMAND_HELP = {
    "spectrum": "write an n,E level table",
    "table": "thermodynamic table over a (beta, h) grid",
    "verify": "run claim checks and emit a JSON report",
    "game": "stationary distribution, minors, ascent trace",
}
_CONFIG = Setting(("--config",), _path, None, "flat key=value config file; flags override")
_HELP = ("-h", "--help")
_HELP_ROW = ("-h, --help", "show this help message and exit")
_TOP_USAGE = "usage: qcgibbs [-h] {" + ",".join(COMMAND_SETTINGS) + "} ..."


class UsageError(Exception):
    """An argv that read_argv refuses; main prints it under the usage."""


def _flag_table(command: str) -> dict[str, Setting]:
    """Every flag `command` takes, by key, in the order its help lists them."""
    return {"config": _CONFIG, **{key: SETTINGS[key] for key in COMMAND_SETTINGS[command]},
            **COMMAND_FLAGS[command]}


def _takes_value(token: str) -> bool:
    """Whether a flag may read `token` as its value: any token but one that
    starts with '-' and is no number, so `--nu -1` reads -1."""
    if not token.startswith("-"):
        return True
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_argv(command: str, argv: list[str]) -> dict[str, str | bool] | None:
    """The text each flag of `command` is given in argv, by key (True for a
    switch; the last of a repeated flag wins), or None where -h or --help
    comes before a refusal. A flag is `--flag value` or `--flag=value`, in
    one of its listed spellings written out in full. Raises UsageError for a
    flag without its value, then for a required flag not given, then for
    every token read as no flag or value, in argv order."""
    table = _flag_table(command)
    keys = {flag: key for key, s in table.items() for flag in s.flags}
    given: dict[str, str | bool] = {}
    unread = []
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token in _HELP:
            return None
        flag, eq, text = token.partition("=")
        key = keys.get(flag) if token.startswith("-") else None
        if key is None:
            unread.append(token)
        elif table[key].parse is None:  # a switch
            if eq:
                raise UsageError(f"argument {flag}: ignored explicit argument {text!r}")
            given[key] = True
        elif eq:
            given[key] = text
        elif i < len(argv) and _takes_value(argv[i]):
            given[key] = argv[i]
            i += 1
        else:
            raise UsageError(f"argument {'/'.join(table[key].flags)}: expected one argument")
    missing = [s.flags[0] for key, s in table.items() if s.required and key not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unread:
        raise UsageError(f"unrecognized arguments: {' '.join(unread)}")
    return given


def _spelled(flag: str, key: str, s: Setting) -> str:
    """A flag as usage and help write it: with its value's name unless a switch."""
    return flag if s.parse is None else f"{flag} {key.upper()}"


def _usage(command: str) -> str:
    """`command`'s usage line, wrapped under its program name at 78 columns."""
    prog = f"usage: qcgibbs {command}"
    lines, words = [prog], ["[-h]"]
    for key, s in _flag_table(command).items():
        word = _spelled(s.flags[0], key, s)
        words.append(word if s.required else f"[{word}]")
    for word in words:
        if len(lines[-1]) + 1 + len(word) > 78:
            lines.append(" " * len(prog))
        lines[-1] += " " + word
    return "\n".join(lines)


def _rows(rows: list[tuple[str, str]]) -> str:
    """Help rows: each name, then its text from column 24 (on the next line
    where the name is longer)."""
    return "".join((f"  {name:20}  {text}" if len(name) <= 20 or not text
                    else f"  {name}\n{'':24}{text}").rstrip() + "\n" for name, text in rows)


def _help(command: str) -> str:
    rows = [(", ".join(_spelled(flag, key, s) for flag in s.flags), s.help or "")
            for key, s in _flag_table(command).items()]
    return f"{_usage(command)}\n\n{_COMMAND_HELP[command]}\n\noptions:\n{_rows([_HELP_ROW, *rows])}"


def _no_command(argv: list[str]) -> int:
    """A run whose first word names no command: -h or --help before any
    other word prints the overview; else no word, an unknown one, or a
    command not named first exits 2."""
    for token in argv:
        if token in _HELP:
            commands = [(f"  {command}", text) for command, text in _COMMAND_HELP.items()]
            sys.stdout.write(
                f"{_TOP_USAGE}\n\nQuantum vs classical canonical ensembles: spectra, "
                "thermodynamic tables,\nclaim verification, and the energy-entropy game.\n\n"
                f"positional arguments:\n  {{{','.join(COMMAND_SETTINGS)}}}\n{_rows(commands)}"
                f"\noptions:\n{_rows([_HELP_ROW])}")
            return EXIT_OK
        if not token.startswith("-"):
            choices = ", ".join(map(repr, COMMAND_SETTINGS))
            error = ("the subcommand must come first" if token in COMMAND_SETTINGS
                     else f"argument command: invalid choice: {token!r} (choose from {choices})")
            break
    else:
        error = "the following arguments are required: command"
    sys.stderr.write(f"{_TOP_USAGE}\nqcgibbs: error: {error}\n")
    return EXIT_USAGE


def _merge_config(command: str, given: dict) -> SimpleNamespace:
    """The run's settings: the flag texts over the config file's keys, each
    parsed by its setting, then checked."""
    texts = dict(given)
    if "config" in texts:  # the file's keys, the flags over them
        path = _settings({"config": texts.pop("config")}, command, given).config
        texts = {**_config_texts(Path(path).read_text(), command), **texts}
    cfg = _settings(texts, command, given)
    # basic validation shared by every command
    if not all(math.isfinite(x) and x > 0 for x in (cfg.beta or ()) + (cfg.h or ())):
        raise ValueError("beta and h grid values must be finite and positive")
    if cfg.format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.max_levels < 8:
        raise ValueError("max_levels must be at least 8, the fewest levels a solve takes")
    return cfg


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command not in COMMAND_SETTINGS:
        return _no_command(argv)
    try:
        given = read_argv(command, argv[1:])
    except UsageError as exc:
        sys.stderr.write(f"{_usage(command)}\nqcgibbs {command}: error: {exc}\n")
        return EXIT_USAGE
    if given is None:
        sys.stdout.write(_help(command))
        return EXIT_OK
    try:
        cfg = _merge_config(command, given)
        if command == "spectrum":
            return cmd_spectrum(cfg)
        if command == "table":
            return cmd_table(cfg)
        if command == "verify":
            return cmd_verify(cfg)
        return cmd_game(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
