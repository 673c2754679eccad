"""The determinism linter: an AST pass over Python sources.

The chaos subsystem's contract is byte-identical replay from a seed
(``benchmarks/test_chaos.py`` asserts it); the simulator's contract is
that virtual time is the only clock. One ``time.time()`` or one
iteration over an unordered ``set`` of strings (whose order depends on
``PYTHONHASHSEED``) silently voids both. This linter bans those
constructs at the source level so violations fail in CI instead of as
unreproducible scorecards three PRs later.

Rules (see :data:`LINT_RULES` or ``docs/analysis.md`` for the catalog):

* ``REPRO101 wall-clock`` — real-clock reads.
* ``REPRO102 unseeded-rng`` — module-level or unseeded RNG.
* ``REPRO103 os-entropy`` — kernel entropy (urandom, uuid4, secrets).
* ``REPRO104 unordered-iteration`` — iterating sets / set-algebra
  results whose order is hash-randomized.
* ``REPRO105 id-ordering`` — orders values by ``id()``
  (address-dependent).

Suppress a deliberate use with a same-line comment::

    order = list(tags)  # repro: allow[REPRO104]

The bracket takes a comma-separated list of rule ids or names, or
``*`` to allow everything on that line. An allow that no longer
suppresses anything is itself reported, as a warning:

* ``REPRO501 stale-allow`` — an allow comment whose rule does not
  fire on that line (or names no known rule).

Comments are found with :mod:`tokenize`, so an ``allow`` that merely
appears inside a string literal or docstring example is *not* a
suppression (and cannot go stale).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.report import Diagnostic, Severity
from repro.analysis.rules import AnalysisError, Rule, RuleRegistry

#: Registry of every lint rule.
LINT_RULES = RuleRegistry()

SYNTAX = LINT_RULES.register(Rule(
    id="REPRO100",
    name="syntax-error",
    summary="file could not be parsed",
    rationale=(
        "an unparseable file cannot be checked, so it fails the lint "
        "run instead of silently escaping analysis"
    ),
))
WALL_CLOCK = LINT_RULES.register(Rule(
    id="REPRO101",
    name="wall-clock",
    summary="reads the real clock (time.time, datetime.now, ...)",
    rationale=(
        "simulation code must derive every timestamp from virtual "
        "time; a wall-clock read makes two replays of the same seed "
        "diverge"
    ),
))
UNSEEDED_RNG = LINT_RULES.register(Rule(
    id="REPRO102",
    name="unseeded-rng",
    summary=(
        "module-level or unseeded RNG (random.*, numpy.random.*, "
        "random.Random())"
    ),
    rationale=(
        "module-level RNG draws from interpreter-global state seeded "
        "from the OS; all randomness must flow through an explicitly "
        "seeded random.Random passed in by the caller"
    ),
))
OS_ENTROPY = LINT_RULES.register(Rule(
    id="REPRO103",
    name="os-entropy",
    summary="kernel entropy (os.urandom, uuid.uuid4, secrets.*)",
    rationale=(
        "kernel entropy is unseedable by construction; identifiers "
        "and draws must come from the run's seed instead"
    ),
))
UNORDERED_ITERATION = LINT_RULES.register(Rule(
    id="REPRO104",
    name="unordered-iteration",
    summary=(
        "iterates a set / set-algebra result whose order is "
        "hash-randomized"
    ),
    rationale=(
        "str hashing is randomized per process (PYTHONHASHSEED), so "
        "iterating a set of operator names visits them in a different "
        "order every run; wrap in sorted() or iterate an ordered "
        "container"
    ),
))
ID_ORDERING = LINT_RULES.register(Rule(
    id="REPRO105",
    name="id-ordering",
    summary="orders values by id() (memory-address dependent)",
    rationale=(
        "id() is an allocation address, different every process; "
        "sort by a stable domain key instead"
    ),
))
STALE_ALLOW = LINT_RULES.register(Rule(
    id="REPRO501",
    name="stale-allow",
    summary=(
        "a # repro: allow[RULE] comment whose rule no longer fires "
        "on that line"
    ),
    rationale=(
        "a stale allow is a latent hole: when the flagged construct "
        "returns (or moves one line), the suppression silently "
        "swallows it; remove the comment once the finding is gone"
    ),
))

#: Real-clock callables, by resolved qualified name.
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Module-level functions of the stdlib ``random`` module (drawing from
#: the hidden global Mersenne Twister). ``random.Random`` itself is
#: fine when seeded.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: numpy.random constructors that are deterministic *when given a seed
#: argument*; called bare they pull OS entropy.
_NUMPY_SEEDABLE_CTORS = frozenset({
    "default_rng", "RandomState", "Generator", "SeedSequence",
})

_OS_ENTROPY_CALLS = frozenset({
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "random.SystemRandom",
})


# ----------------------------------------------------------------------
# Source plumbing: suppression comments, import aliases, set-ness
# ----------------------------------------------------------------------

#: The suppression directive: comment token "repro:" followed by
#: "allow" with a bracketed rule list. Spelled out here (rather than
#: quoted) so this very comment does not parse as a suppression.
ALLOW_PATTERN = re.compile(
    r"#\s*repro:\s*allow\[([^\]]*)\]", re.IGNORECASE
)


def _comment_lines(source: str) -> List[Tuple[int, str]]:
    """``(lineno, comment_text)`` for every comment token. Falls back
    to a whole-line scan when the file does not tokenize (the linter
    reports the syntax error separately)."""
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(
            io.StringIO(source).readline
        ):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = [
            (lineno, line)
            for lineno, line in enumerate(
                source.splitlines(), start=1
            )
            if "#" in line
        ]
    return comments


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule tokens allowed there."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, comment in _comment_lines(source):
        match = ALLOW_PATTERN.search(comment)
        if match is None:
            continue
        tokens = {
            token.strip()
            for token in match.group(1).split(",")
            if token.strip()
        }
        if tokens:
            allowed[lineno] = tokens
    return allowed


def suppressed(
    allowed: Dict[int, Set[str]], lineno: int, rule: Rule
) -> bool:
    """Whether ``rule`` is allowed on ``lineno`` (id, name, or ``*``)."""
    tokens = allowed.get(lineno)
    if not tokens:
        return False
    return any(
        token == "*"
        or token.upper() == rule.id
        or token.lower() == rule.name
        for token in tokens
    )


class Aliases:
    """Tracks import bindings so dotted call names resolve to their
    canonical modules (``np.random.rand`` -> ``numpy.random.rand``,
    ``from time import time as t; t()`` -> ``time.time``)."""

    def __init__(self) -> None:
        self._map: Dict[str, str] = {}

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname is not None:
                self._map[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self._map.setdefault(root, root)

    def add_import_from(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return  # relative import: never a stdlib entropy source
        for alias in node.names:
            bound = alias.asname or alias.name
            self._map[bound] = f"{node.module}.{alias.name}"

    def qualify(self, node: ast.AST) -> Optional[str]:
        """Resolve an expression to a dotted name, or None if it is
        not a plain name/attribute chain."""
        if isinstance(node, ast.Name):
            return self._map.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.qualify(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None


def _is_keys_view(expr: ast.AST) -> bool:
    """``x.keys()`` — a view that participates in set algebra."""
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr == "keys"
        and not expr.args
        and not expr.keywords
    )


def unordered_reason(
    expr: ast.AST, aliases: Aliases
) -> Optional[str]:
    """Why ``expr`` evaluates to an unordered collection, or None if
    its order is well-defined (syntactically)."""
    if isinstance(expr, ast.Set):
        return "a set literal"
    if isinstance(expr, ast.SetComp):
        return "a set comprehension"
    if isinstance(expr, ast.Call):
        name = aliases.qualify(expr.func)
        if name in ("set", "frozenset"):
            return f"{name}(...)"
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("union", "intersection",
                                   "difference",
                                   "symmetric_difference")
            and unordered_reason(expr.func.value, aliases) is not None
        ):
            return f"a set .{expr.func.attr}(...) result"
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        left = unordered_reason(expr.left, aliases)
        right = unordered_reason(expr.right, aliases)
        keysish = _is_keys_view(expr.left) or _is_keys_view(expr.right)
        if left is not None or right is not None or keysish:
            return "a set-algebra result"
    return None


def iter_python_files(
    paths: Sequence[Union[str, Path]],
    *,
    exclude: Iterable[Union[str, Path]] = (),
) -> List[Path]:
    """Expand files/directory trees to a sorted ``*.py`` list.

    ``exclude`` drops files equal to, or below, any of the given
    paths (directories exclude their whole subtree).
    """
    excluded = [Path(entry).resolve() for entry in exclude]

    def keep(candidate: Path) -> bool:
        resolved = candidate.resolve()
        return not any(
            resolved == anchor or anchor in resolved.parents
            for anchor in excluded
        )

    files: List[Path] = []
    for entry in paths:
        entry_path = Path(entry)
        if entry_path.is_dir():
            files.extend(
                found
                for found in sorted(entry_path.rglob("*.py"))
                if keep(found)
            )
        elif entry_path.is_file():
            if keep(entry_path):
                files.append(entry_path)
        else:
            raise AnalysisError(
                f"no such file or directory: {entry_path}"
            )
    return files


# ----------------------------------------------------------------------
# The determinism rules
# ----------------------------------------------------------------------

def _has_arguments(node: ast.Call) -> bool:
    return bool(node.args or node.keywords)


class _LintVisitor(ast.NodeVisitor):
    """Single-pass visitor applying every determinism rule."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._aliases = Aliases()
        self.findings: List[Diagnostic] = []

    # -- bookkeeping ---------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self._aliases.add_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._aliases.add_import_from(node)
        self.generic_visit(node)

    def _report(
        self,
        rule: Rule,
        node: ast.AST,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> None:
        self.findings.append(Diagnostic(
            code=rule.id,
            message=message,
            path=self._path,
            line=getattr(node, "lineno", None),
            column=getattr(node, "col_offset", None),
            severity=severity,
        ))

    # -- call-shaped rules (101, 102, 103, 105) ------------------------

    def visit_Call(self, node: ast.Call) -> None:
        qualname = self._aliases.qualify(node.func)
        if qualname is not None:
            self._check_wall_clock(node, qualname)
            self._check_rng(node, qualname)
            self._check_os_entropy(node, qualname)
            self._check_id_ordering(node, qualname)
            self._check_conversion(node, qualname)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, qualname: str) -> None:
        if qualname in _WALL_CLOCK_CALLS:
            self._report(
                WALL_CLOCK, node,
                f"call to {qualname}() reads the real clock; derive "
                "timestamps from the simulator's virtual time",
            )

    def _check_rng(self, node: ast.Call, qualname: str) -> None:
        parts = qualname.split(".")
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _GLOBAL_RANDOM_FUNCS
        ):
            self._report(
                UNSEEDED_RNG, node,
                f"{qualname}() draws from the process-global RNG; "
                "use an explicitly seeded random.Random passed in by "
                "the caller",
            )
            return
        if qualname == "random.Random" and not _has_arguments(node):
            self._report(
                UNSEEDED_RNG, node,
                "random.Random() without a seed is seeded from OS "
                "entropy; pass an explicit seed",
            )
            return
        if len(parts) >= 3 and parts[0] == "numpy" and parts[1] == "random":
            func = parts[-1]
            if func in _NUMPY_SEEDABLE_CTORS:
                if not _has_arguments(node):
                    self._report(
                        UNSEEDED_RNG, node,
                        f"numpy.random.{func}() without a seed pulls "
                        "OS entropy; pass an explicit seed",
                    )
            else:
                self._report(
                    UNSEEDED_RNG, node,
                    f"numpy.random.{func}() uses numpy's global RNG; "
                    "use a seeded Generator "
                    "(numpy.random.default_rng(seed))",
                )

    def _check_os_entropy(self, node: ast.Call, qualname: str) -> None:
        if qualname in _OS_ENTROPY_CALLS or qualname.startswith(
            "secrets."
        ):
            self._report(
                OS_ENTROPY, node,
                f"{qualname}() is unseedable kernel entropy; derive "
                "identifiers and draws from the run's seed",
            )

    def _check_id_ordering(self, node: ast.Call, qualname: str) -> None:
        if qualname not in ("sorted", "min", "max"):
            return
        values: List[ast.expr] = list(node.args)
        values.extend(kw.value for kw in node.keywords)
        for value in values:
            if isinstance(value, ast.Name) and value.id == "id":
                self._report(
                    ID_ORDERING, value,
                    f"{qualname}(..., key=id) orders by memory "
                    "address; use a stable domain key",
                )
                continue
            for sub in ast.walk(value):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                ):
                    self._report(
                        ID_ORDERING, sub,
                        f"id() inside {qualname}() orders by memory "
                        "address; use a stable domain key",
                    )

    # -- iteration rule (104) ------------------------------------------

    def _check_iterable(self, expr: ast.AST) -> None:
        reason = unordered_reason(expr, self._aliases)
        if reason is not None:
            self._report(
                UNORDERED_ITERATION, expr,
                f"iterating {reason}: element order depends on "
                "PYTHONHASHSEED; wrap in sorted() or iterate an "
                "ordered container",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", []):
            self._check_iterable(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Starred(self, node: ast.Starred) -> None:
        self._check_iterable(node.value)
        self.generic_visit(node)

    def _check_conversion(self, node: ast.Call, qualname: str) -> None:
        """list(...)/tuple(...)/iter(...)/enumerate(...) over an
        unordered collection freezes an arbitrary order."""
        if qualname in ("list", "tuple", "iter", "enumerate") and node.args:
            self._check_iterable(node.args[0])


def collect_findings(source: str, path: str = "<string>") -> List[Diagnostic]:
    """Raw determinism findings for one source string — every rule, no
    suppression/select/ignore filtering. :func:`lint_source` applies
    those afterwards (it needs the raw set to spot stale allows)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Diagnostic(
            code=SYNTAX.id,
            message=f"could not parse: {error.msg}",
            path=path,
            line=error.lineno,
            column=(error.offset or 1) - 1,
        )]
    visitor = _LintVisitor(path)
    visitor.visit(tree)
    return visitor.findings


def _stale_findings(
    path: str,
    allowed: Dict[int, Set[str]],
    raw: Sequence[Diagnostic],
) -> List[Diagnostic]:
    """REPRO501 warnings for allow tokens that suppress nothing."""
    fired: Dict[int, Set[str]] = {}
    for finding in raw:
        if finding.line is not None:
            fired.setdefault(finding.line, set()).add(finding.code)

    def stale(lineno: int, message: str) -> Diagnostic:
        return Diagnostic(
            code=STALE_ALLOW.id,
            message=message,
            path=path,
            line=lineno,
            severity=Severity.WARNING,
        )

    findings: List[Diagnostic] = []
    for lineno in sorted(allowed):
        tokens = allowed[lineno]
        if any(
            token.upper() == STALE_ALLOW.id
            or token.lower() == STALE_ALLOW.name
            for token in tokens
        ):
            # An explicit allow[REPRO501] opts the line out of stale
            # checking (and is never itself reported stale).
            continue
        fired_here = fired.get(lineno, set())
        for token in sorted(tokens):
            if token == "*":
                if not fired_here:
                    findings.append(stale(
                        lineno,
                        "stale suppression: allow[*] on a line where "
                        "no rule fires; remove the comment",
                    ))
            elif token not in LINT_RULES:
                findings.append(stale(
                    lineno,
                    f"suppression names unknown rule {token!r}; it "
                    "suppresses nothing",
                ))
            else:
                rule = LINT_RULES.get(token)
                if rule.id not in fired_here:
                    findings.append(stale(
                        lineno,
                        f"stale suppression: {rule.id} ({rule.name}) "
                        "no longer fires on this line; remove the "
                        "allow comment",
                    ))
    return findings


def _resolve_rule_set(
    keys: Optional[Iterable[str]],
) -> Optional[Set[str]]:
    if keys is None:
        return None
    return {LINT_RULES.get(key).id for key in keys}


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Lint one source string; returns unsuppressed findings, then
    REPRO501 warnings for stale allows.

    ``select`` restricts to the given rule ids/names; ``ignore`` drops
    the given ones. Suppression comments are always honored.
    """
    selected = _resolve_rule_set(select)
    ignored = _resolve_rule_set(ignore) or set()
    allowed = parse_suppressions(source)
    raw = collect_findings(source, path)
    findings = [
        finding
        for finding in raw
        if finding.line is None
        or not suppressed(
            allowed, finding.line, LINT_RULES.get(finding.code)
        )
    ]
    findings.extend(_stale_findings(path, allowed, raw))
    return [
        finding
        for finding in findings
        if (selected is None or finding.code in selected)
        and finding.code not in ignored
    ]


def lint_file(
    path: Union[str, Path],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Lint one file on disk."""
    file_path = Path(path)
    source = file_path.read_text(encoding="utf-8")
    return lint_source(
        source, str(file_path), select=select, ignore=ignore
    )


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    exclude: Sequence[Union[str, Path]] = (),
) -> List[Diagnostic]:
    """Lint files and/or directory trees (``*.py``, sorted order).

    ``exclude`` drops files at or below the given paths (the lint
    fixtures directory, for one, is deliberately full of findings).
    """
    # Resolve eagerly so an unknown rule fails fast, not mid-walk.
    _resolve_rule_set(select)
    _resolve_rule_set(ignore)
    findings: List[Diagnostic] = []
    for file_path in iter_python_files(paths, exclude=exclude):
        findings.extend(
            lint_file(file_path, select=select, ignore=ignore)
        )
    return findings


__all__ = [
    "LINT_RULES",
    "collect_findings",
    "lint_file",
    "lint_paths",
    "lint_source",
]
