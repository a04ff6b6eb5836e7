"""Finite Markov decision process models with a taboo/forbidden/target state split.

A model couples a finite state set, a finite action set, a transition tensor
``p[i, u, j]`` and a per-step cost table ``rho[u, i]``.  States are kept in a
canonical order: taboo states (the interior, written H) first, then forbidden
states (U), then target states (E).  The process runs until it first leaves H;
costs accrue on every step taken from an H state and the optimizers minimize
their expected sum.

JSON document format (omitted transition triples and cost entries are zero)::

    {
      "states": ["a", "b"],
      "actions": ["u1"],
      "partition": {"taboo": ["a"], "forbidden": [], "target": ["b"]},
      "transitions": [{"from": "a", "action": "u1", "to": "b", "p": 1.0}],
      "rewards": [{"state": "a", "action": "u1", "rho": 2.0}]
    }

Policy documents list one row per state::

    {"policy": [{"state": "a", "dist": {"u1": 1.0}}]}

Labels are JSON strings or numbers; probabilities, costs and policy masses
are JSON numbers.  ``load_model`` touches each entry once and reports the
first defect in document order; ``serialize_model`` writes the
``json.dumps(indent=2)`` layout byte for byte without building the dicts.
It writes the numbers of each array in one call: ``json.dumps`` of the
value list, or where orjson is installed and every value is finite,
``orjson.dumps`` with the few tokens it lays out differently written
again by ``repr`` (``_tokens``).

Two parse paths share one build step (``_build``).  ``json.loads`` is the
reference.  Where the optional ``orjson`` package is installed,
``load_model`` parses with it first and keeps that model only where the
reference would give the same one; any other text, including every text
that orjson or the build rejects, is parsed again by ``json.loads``, so
each error is the reference's.  orjson is trusted where:

- the text holds at most ``ORJSON_MAX_BRACKETS`` brackets, so it nests no
  deeper than that; orjson 3.8.3 has no depth limit and overflows an
  8 MB stack at about 52,000 nested objects, where ``json.loads`` gives
  up with RecursionError;
- it holds at most nine containers besides the transition and reward
  entries, so nothing the build skips nests deep enough for
  ``json.loads`` to hit the recursion limit;
- no label is a float or the int -2**63.  orjson reads an integer literal
  outside [-2**63, 2**64) as the nearest float, which can only equal a
  float label or -2**63.  Such a float in ``p`` or ``rho`` is
  ``float(int)`` on both paths, as both round correctly.

Every function that takes a policy checks it by ``_check_policy``, and
only this module builds policies; no other module calls ``Policy``.

``load_model`` and ``load_policy`` raise ModelFormatError, not
RecursionError, on a text nested past the interpreter's recursion limit
and on a label too deep for ``repr`` to quote in an error message.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields
from functools import cached_property, wraps

import numpy as np

from .exceptions import ModelFormatError, ModelValidationError, PolicyError

try:  # an optional accelerator, not a dependency
    import orjson
except ImportError:
    orjson = None

ROW_SUM_TOL = 1e-12
SIMPLEX_TOL = 1e-12
# The most "{" and "[" characters in a text that orjson may parse.  Each
# nested object takes it about 160 bytes of C stack, so 2**15 levels fit
# in an 8 MB stack with room to spare.
ORJSON_MAX_BRACKETS = 1 << 15
# The only int that an integer literal below -2**63 can round to.
_INT64_MIN = -(1 << 63)


def _frozen(a: np.ndarray, copy: bool = False) -> np.ndarray:
    """``a`` as a read-only float array.

    With ``copy`` the array is a copy even when ``a`` is already a float
    array, so a caller's own array stays writeable.
    """
    a = np.array(a, dtype=float) if copy else np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _check_count(value, name: str, least: int | None = None) -> int:
    """``value`` as an int; ValueError unless it is an integer, not a bool, of at least ``least``.

    Every count, seed and iteration cap goes through it, so all of them
    reject the same inputs: bools, floats (3.0 and NaN too), strings and
    None.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (least is not None and value < least)):
        kind = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}[least]
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class StatePartition:
    """Ordered split of the state set into taboo (H), forbidden (U) and target (E)."""

    taboo: tuple[str, ...]
    forbidden: tuple[str, ...]
    target: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "taboo", tuple(self.taboo))
        object.__setattr__(self, "forbidden", tuple(self.forbidden))
        object.__setattr__(self, "target", tuple(self.target))


@dataclass(frozen=True)
class MdpModel:
    """Finite MDP in canonical state order (taboo, forbidden, target).

    Parameters
    ----------
    states : tuple of str
        State labels; must equal ``partition.taboo + partition.forbidden +
        partition.target`` for a valid model.
    actions : tuple of str
        Action labels.
    partition : StatePartition
    transitions : ndarray, shape (n, m, n)
        ``transitions[i, u, j]`` is the probability of moving to state j when
        action u is taken in state i.  Every (i, u) row sums to one.
    rewards : ndarray, shape (m, n)
        ``rewards[u, i]`` is the cost charged for taking action u in state i.
        Must be zero on target states.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    partition: StatePartition
    transitions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "transitions", _frozen(self.transitions, copy=True))
        object.__setattr__(self, "rewards", _frozen(self.rewards, copy=True))

    @classmethod
    def _adopt(cls, states: tuple, actions: tuple, partition: StatePartition,
               transitions: np.ndarray, rewards: np.ndarray) -> MdpModel:
        """A model that holds ``transitions`` and ``rewards`` themselves, frozen.

        For ``load_model``'s fresh arrays, which nothing else holds: the
        constructor's copy, kept so that a caller's own array stays
        writeable, would be one more (n, m, n) tensor per load.
        """
        model = cls.__new__(cls)
        values = (states, actions, partition, _frozen(transitions), _frozen(rewards))
        for field, value in zip(fields(cls), values):
            object.__setattr__(model, field.name, value)
        return model

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_taboo(self) -> int:
        return len(self.partition.taboo)

    @property
    def n_forbidden(self) -> int:
        return len(self.partition.forbidden)

    @property
    def n_target(self) -> int:
        return len(self.partition.target)

    @cached_property
    def _state_get(self):
        """State label to canonical index under ``_getter``'s bool rule."""
        return _getter({s: i for i, s in enumerate(self.states)})

    @cached_property
    def _action_get(self):
        """Action label to index under ``_getter``'s bool rule."""
        return _getter({u: k for k, u in enumerate(self.actions)})

    def state_index(self, state) -> int:
        """Map a state label, or else a position, to its canonical index.

        A known label resolves as that label, also when it is a number;
        any other integral, non-bool value is a position.
        """
        return _lookup(self._state_get, self.n_states, state, "state")

    def action_index(self, action) -> int:
        """Map an action label, or else a position, to its index (as ``state_index``)."""
        return _lookup(self._action_get, self.n_actions, action, "action")

    # The model view, derived once and read-only so no caller corrupts it.

    @cached_property
    def taboo_block(self) -> np.ndarray:
        """``p[i, u, j]`` for taboo i and j, shape (n_taboo, n_actions, n_taboo)."""
        h = self.n_taboo
        return _frozen(self.transitions[:h, :, :h].copy())

    @cached_property
    def stage_costs(self) -> np.ndarray:
        """Stage cost ``rho(u, i)`` indexed [i, u], shape (n_taboo, n_actions)."""
        return _frozen(self.rewards[:, : self.n_taboo].T.copy())

    @cached_property
    def forbidden_exit(self) -> np.ndarray:
        """One-step mass into forbidden states, shape (n_taboo, n_actions)."""
        h, nu = self.n_taboo, self.n_forbidden
        return _frozen(self.transitions[:h, :, h : h + nu].sum(axis=2))

    @cached_property
    def target_exit(self) -> np.ndarray:
        """One-step mass into target states, shape (n_taboo, n_actions)."""
        h, nu = self.n_taboo, self.n_forbidden
        return _frozen(self.transitions[:h, :, h + nu :].sum(axis=2))

    @property
    def taboo_slice(self) -> slice:
        return slice(0, self.n_taboo)

    @property
    def exit_slice(self) -> slice:
        """Indices of forbidden and target states (everything after H)."""
        return slice(self.n_taboo, self.n_states)


@dataclass(frozen=True)
class Policy:
    """Row-stochastic decision rule, one distribution over actions per state.

    Wrapping checks nothing; ``make_policy`` and each function taking a policy
    check it.  The package's own policies put forbidden and target rows on action 0.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix, copy=True))

    @property
    def pure(self) -> bool:
        """True when every row puts all mass on a single action."""
        return bool((self.matrix.max(axis=1) == 1.0).all())

    def assignment(self) -> np.ndarray:
        """Per-state argmax action index (meaningful for pure policies)."""
        return self.matrix.argmax(axis=1)


def validate_model(model: MdpModel) -> list[str]:
    """Check every model invariant and return the violations found.

    An empty list means the model is valid.  Each entry names the offending
    index so the report can stand on its own.
    """
    v: list[str] = []
    part = model.partition
    canonical = part.taboo + part.forbidden + part.target
    seen: set[str] = set()
    for s in canonical:
        if s in seen:
            v.append(f"partition lists overlap on state {s!r}")
        seen.add(s)
    missing = [s for s in model.states if s not in seen]
    if missing:
        v.append(f"partition does not cover states: {', '.join(map(repr, missing))}")
    declared = set(model.states)
    extra = [s for s in canonical if s not in declared]
    if extra:
        v.append(f"partition names undeclared states: {', '.join(map(repr, extra))}")
    if not extra and not missing and canonical != model.states:
        v.append("states are not in canonical order (taboo, forbidden, target)")
    if not part.taboo:
        v.append("taboo set is empty (H must be non-empty)")
    if not part.target:
        v.append("target set is empty (E must be non-empty)")
    for kind, labels in (("state", model.states), ("action", model.actions)):
        for key, i in _text_index(labels).items():
            if i is None:
                one, two = [label for label in labels if _key_text(label) == key][:2]
                v.append(f"{kind} labels {one!r} and {two!r} share the report key {key!r}")

    n, m = model.n_states, model.n_actions
    if model.transitions.shape != (n, m, n):
        v.append(
            f"transition tensor has shape {model.transitions.shape}, expected {(n, m, n)}"
        )
        return v
    if model.rewards.shape != (m, n):
        v.append(f"reward table has shape {model.rewards.shape}, expected {(m, n)}")
        return v

    if not np.isfinite(model.transitions).all():
        v.append("transition tensor contains non-finite entries")
        return v
    if not np.isfinite(model.rewards).all():
        v.append("reward table contains non-finite entries")
    negative = np.argwhere(model.rewards.T < 0)
    if negative.size:
        j, u = negative[0]
        v.append(
            f"reward negative on state {model.states[j]!r} (action {model.actions[u]})"
        )

    t = model.transitions
    outside = ((t < 0) | (t > 1)).any(axis=2)
    sums = t.sum(axis=2)
    for i, u in np.argwhere(outside | (np.abs(sums - 1.0) > ROW_SUM_TOL)).tolist():
        row = f"transition row ({model.states[i]}, {model.actions[u]})"
        if outside[i, u]:
            v.append(f"{row} has entries outside [0, 1]")
        else:
            v.append(f"{row} sums to {sums[i, u]:.12g}")

    target = set(part.target)
    for j, s in enumerate(model.states):
        if s in target:
            nonzero = np.flatnonzero(model.rewards[:, j])
            if nonzero.size:
                v.append(
                    f"reward nonzero on target state {s!r} "
                    f"(action {model.actions[nonzero[0]]})"
                )
    return v


def _require_list(doc: dict, key: str, default=None):
    if key not in doc:
        if default is not None:
            return default
        raise ModelFormatError(f"document is missing the {key!r} list")
    val = doc[key]
    if not isinstance(val, list):
        raise ModelFormatError(f"{key!r} must be a list")
    return val


def _lookup(get, n: int, key, kind: str) -> int:
    """The index ``get`` finds for label ``key``, or else ``key`` as a position below ``n``."""
    found = _find(get, key)
    if found is not None:
        return found
    if isinstance(key, bool) or not isinstance(key, (int, np.integer)):
        raise KeyError(f"unknown {kind} label {key!r}")
    if not 0 <= key < n:
        raise KeyError(f"{kind} index {key} out of range")
    return int(key)


def _getter(index: dict):
    """``index.get`` under one rule: a bool names only a bool label, and a
    number only a label that is not a bool, though Python holds ``True == 1``
    and ``False == 0``.  numpy's bools count as bools.

    Only a key equal to 0 or 1 can answer for a label of the other kind,
    so without one the plain ``dict.get`` is exact; a checked look-up
    would add a fifth to ``load_model`` on a 2.3 MB dense document.  With
    one, a key equal to ``label`` is a bool exactly when it is in
    ``bools``, so one set look-up tells a bool from the number it equals.
    Like ``dict.get``, the getter raises TypeError for an unhashable label.
    """
    if not any(label in (0, 1) for label in index):
        return index.get
    kinds = (bool, np.bool_)
    bools = {label for label in index if isinstance(label, kinds)}
    return lambda key: index.get(key) if (key in bools) == isinstance(key, kinds) else None


def _find(get, label):
    """``get(label)``, or None where ``label`` is unhashable (a list or object)."""
    try:
        return get(label)
    except TypeError:
        return None


def _text_index(labels) -> dict[str, int | None]:
    """Map each label's ``_key_text`` to its index, or to None where labels share it."""
    index: dict[str, int | None] = {}
    for i, label in enumerate(labels):
        key = _key_text(label)
        index[key] = None if key in index else i
    return index


def _key_text(label) -> str:
    """The text ``json.dumps`` writes for ``label`` as an object key.

    A string is its own key text and is not encoded; ``True`` is keyed
    ``"true"``, ``None`` ``"null"`` and the number 2 ``"2"``.
    """
    if type(label) is str:
        return label
    (key,) = json.loads(json.dumps({label: 0}))
    return key


def _unknown(entry: str, refs) -> ModelFormatError:
    """The error for the first (label, kind, get) in ``refs`` whose ``get`` finds no label."""
    label, kind = next((s, kind) for s, kind, get in refs if _find(get, s) is None)
    return ModelFormatError(f"{entry} names unknown {kind} {label!r}")


def _check_number(value, entry: str) -> None:
    """Raise ModelFormatError unless a JSON value whose type is not float fits one."""
    if type(value) is not int:  # a string, boolean, null, list or object
        raise ModelFormatError(f"{entry} is not a number: {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ModelFormatError(f"{entry} is out of float range") from None


def _shallow(load):
    """``load`` with a RecursionError raised as a ModelFormatError.

    ``json.loads`` raises RecursionError on a text nested past the
    interpreter's recursion limit (about 1,000 levels), and ``repr`` may on
    a label nested nearly that deep when an error message quotes it.
    """

    @wraps(load)
    def checked(text, *args):
        try:
            return load(text, *args)
        except RecursionError as exc:
            raise ModelFormatError(f"document nests too deeply: {exc}") from None

    return checked


@_shallow
def load_model(text: str) -> MdpModel:
    """Parse and validate a model document.

    Parameters
    ----------
    text : str
        JSON document in the format described in the module docstring.

    Returns
    -------
    MdpModel
        Validated model with states reordered canonically.

    Raises
    ------
    ModelFormatError
        On malformed JSON, a text nested too deeply to parse, missing
        sections, list or object labels, unknown labels, duplicates or a
        probability or cost that is not a JSON number in float range; the
        first defect in document order wins.
    ModelValidationError
        When the parsed model violates an invariant; carries the full
        violation list.
    """
    if orjson is not None and isinstance(text, str):
        model = _load_orjson(text)
        if model is not None:
            return model
    return _build(_parse(text))


def _parse(text):
    """``json.loads(text)``, with a ValueError as a ModelFormatError."""
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer beyond int_max_str_digits
        raise ModelFormatError(f"not valid JSON: {exc}") from None


def _load_orjson(text: str) -> MdpModel | None:
    """The model built from orjson's parse where it is ``json.loads``' model, else None.

    The module docstring gives the rules; None sends the text through
    ``json.loads``, which then gives the model or the error.
    """
    brackets = text.count("{") + text.count("[")
    if brackets > ORJSON_MAX_BRACKETS:
        return None
    try:
        doc = orjson.loads(text)
        model = _build(doc)
    except Exception:  # noqa: BLE001 - the reference path gives every error
        return None
    entries = len(doc.get("transitions", ())) + len(doc.get("rewards", ()))
    labels = model.states + model.actions
    if brackets > entries + 9 or _INT64_MIN in labels or float in set(map(type, labels)):
        return None
    return model


def _build(doc) -> MdpModel:
    """The model of a parsed document; ``load_model`` less the parse."""
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level document must be an object")

    states = _require_list(doc, "states")
    actions = _require_list(doc, "actions")
    for kind, labels in (("state", states), ("action", actions)):
        for s in labels:
            if isinstance(s, (list, dict)):  # unhashable, so it could name nothing
                raise ModelFormatError(f"{kind} label {s!r} is a list or object")
        if len(set(labels)) != len(labels):
            raise ModelFormatError(f"duplicate {kind} labels")
    if not actions:
        raise ModelFormatError("action set is empty")

    part_doc = doc.get("partition", {})
    if not isinstance(part_doc, dict):
        raise ModelFormatError("'partition' must be an object")
    part = StatePartition(
        taboo=tuple(_require_list(part_doc, "taboo", default=[])),
        forbidden=tuple(_require_list(part_doc, "forbidden", default=[])),
        target=tuple(_require_list(part_doc, "target", default=[])),
    )
    state_set = set(states)
    known = _getter({s: i for i, s in enumerate(states)})
    for s in part.taboo + part.forbidden + part.target:
        if _find(known, s) is None:
            raise ModelFormatError(f"partition names unknown state {s!r}")

    canonical = list(part.taboo + part.forbidden + part.target)
    if set(canonical) == state_set and len(canonical) == len(states):
        order = canonical
    else:
        # Incomplete partitions cannot be reordered; keep document order and
        # let validation report the defect.
        order = list(states)
    sget = _getter({s: i for i, s in enumerate(order)})
    aget = _getter({u: k for k, u in enumerate(actions)})

    # One pass per entry list with the checks in document order; a cell is
    # the flat index of its entry in the array it fills.
    n, m = len(order), len(actions)
    cells, probs, seen = [], [], set()
    for entry in _require_list(doc, "transitions", default=[]):
        if not isinstance(entry, dict):
            raise ModelFormatError("transition entries must be objects")
        try:
            src, act, dst, prob = entry["from"], entry["action"], entry["to"], entry["p"]
        except KeyError as exc:
            raise ModelFormatError(f"transition entry missing key {exc}") from None
        try:
            i, u, j = sget(src), aget(act), sget(dst)
        except TypeError:  # a list or object names no label
            i = u = j = None
        if i is None or u is None or j is None:
            raise _unknown(
                "transition", ((src, "state", sget), (dst, "state", sget), (act, "action", aget))
            )
        cell = (i * m + u) * n + j
        if cell in seen:
            raise ModelFormatError(f"duplicate transition triple {(src, act, dst)}")
        seen.add(cell)
        if type(prob) is not float:
            _check_number(prob, f"transition {(src, act, dst)} p")
        cells.append(cell)
        probs.append(prob)
    p = np.zeros(n * m * n)
    p[cells] = probs

    cells, costs, seen = [], [], set()
    for entry in _require_list(doc, "rewards", default=[]):
        if not isinstance(entry, dict):
            raise ModelFormatError("reward entries must be objects")
        try:
            st, act, val = entry["state"], entry["action"], entry["rho"]
        except KeyError as exc:
            raise ModelFormatError(f"reward entry missing key {exc}") from None
        try:
            i, u = sget(st), aget(act)
        except TypeError:
            i = u = None
        if i is None or u is None:
            raise _unknown("reward", ((st, "state", sget), (act, "action", aget)))
        cell = u * n + i
        if cell in seen:
            raise ModelFormatError(f"duplicate reward entry {(st, act)}")
        seen.add(cell)
        if type(val) is not float:
            _check_number(val, f"reward {(st, act)} rho")
        cells.append(cell)
        costs.append(val)
    rho = np.zeros(m * n)
    rho[cells] = costs

    model = MdpModel._adopt(
        tuple(order), tuple(actions), part, p.reshape(n, m, n), rho.reshape(m, n)
    )
    violations = validate_model(model)
    if violations:
        raise ModelValidationError(violations)
    return model


def serialize_model(model: MdpModel) -> str:
    """Serialize a model to the JSON document format; inverse of load_model.

    The text is ``json.dumps(doc, indent=2)`` of the document dict byte for
    byte; the entries come from ``np.flatnonzero`` in C order, their
    numbers from one ``_tokens`` call per array.
    """
    s, a = [json.dumps(x) for x in model.states], [json.dumps(x) for x in model.actions]
    head = json.dumps(
        {"states": model.states, "actions": model.actions, "partition": asdict(model.partition)},
        indent=2,
    )
    ii, uu, jj, pp = _entries(model.transitions)
    transitions = [
        f'    {{\n      "from": {s[i]},\n      "action": {a[u]},\n      "to": {s[j]},\n'
        f'      "p": {p}\n    }}'
        for i, u, j, p in zip(ii, uu, jj, pp)
    ]
    uu, ii, rr = _entries(model.rewards)
    rewards = [
        f'    {{\n      "state": {s[i]},\n      "action": {a[u]},\n      "rho": {r}\n    }}'
        for u, i, r in zip(uu, ii, rr)
    ]
    return (
        f'{head[:-2]},\n  "transitions": {_entry_list(transitions)},\n'
        f'  "rewards": {_entry_list(rewards)}\n}}'
    )


def _entries(values: np.ndarray) -> list[list]:
    """The index lists of the nonzero entries in C order, then their number tokens."""
    flat = np.flatnonzero(values)
    index = [x.tolist() for x in np.unravel_index(flat, values.shape)]
    return [*index, _tokens(values.ravel()[flat])]


def _tokens(values: np.ndarray) -> list[str]:
    """The JSON encoder's text for each number, NaN and infinities included.

    ``json.dumps`` writes the tokens where orjson is missing or a value is
    not finite (orjson writes those as null).  Otherwise ``orjson.dumps``
    writes them: its digits are the shortest that read back, as ``repr``'s
    are, and its layout is ``repr``'s for magnitudes in [1e-4, 1e16).
    Outside that it writes an exponent without sign or padding (1e-7,
    1e16) or a long fraction (0.000094 for 9.4e-05), so only those
    tokens are written again by ``repr``.
    """
    if orjson is None or not np.isfinite(values).all():
        return json.dumps(values.tolist())[1:-1].split(", ")
    tokens = orjson.dumps(values.tolist())[1:-1].decode().split(",")
    size = np.abs(values)
    for k in np.flatnonzero((size < 1e-4) | (size >= 1e16)).tolist():
        tokens[k] = repr(float(tokens[k]))
    return tokens


def _entry_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _check_policy(model: MdpModel, matrix) -> np.ndarray:
    """``matrix`` as floats; PolicyError unless it is a policy matrix for ``model``.

    Shape (n_states, n_actions), each row nonnegative and summing to one
    within SIMPLEX_TOL; the error names the first bad row in state order.
    """
    matrix = np.asarray(matrix, dtype=float)
    expected = (model.n_states, model.n_actions)
    if matrix.shape != expected:
        raise PolicyError(f"policy matrix has shape {matrix.shape}, expected {expected}")
    with np.errstate(invalid="ignore", over="ignore"):
        sums = matrix.sum(axis=1)
    bad = (matrix < -SIMPLEX_TOL).any(axis=1) | ~(np.abs(sums - 1.0) <= SIMPLEX_TOL)
    if bad.any():
        state = model.states[bad.argmax()]
        raise PolicyError(f"policy row for state {state!r} is not a distribution")
    return matrix


def _taboo_policy(model: MdpModel, rows: np.ndarray) -> Policy:
    """``rows`` for the first states (the taboo ones at least), every later state on action 0."""
    matrix = np.zeros((model.n_states, model.n_actions))
    matrix[len(rows) :, 0] = 1.0
    matrix[: len(rows)] = rows
    return Policy(matrix)


def make_policy(model: MdpModel, matrix: np.ndarray) -> Policy:
    """Wrap a full (n_states, n_actions) matrix as a policy after ``_check_policy``."""
    return Policy(_check_policy(model, matrix))


def pure_policy(model: MdpModel, assignment) -> Policy:
    """Build a deterministic policy from a state-to-action assignment.

    Parameters
    ----------
    assignment : mapping
        Maps each taboo state (label or index) to an action (label or index).
        Entries for forbidden or target states are honored if present;
        otherwise those rows default to action index 0.

    Raises
    ------
    PolicyError
        If a taboo state has no assigned action.
    """
    chosen = {model.state_index(s): model.action_index(u) for s, u in assignment.items()}
    missing = [s for i, s in enumerate(model.states[: model.n_taboo]) if i not in chosen]
    if missing:
        raise PolicyError(f"assignment is missing taboo state {missing[0]!r}")
    choice = [chosen.get(i, 0) for i in range(model.n_states)]
    return _taboo_policy(model, np.eye(model.n_actions)[choice])


@_shallow
def load_policy(text: str, model: MdpModel) -> Policy:
    """Parse a policy document against a model.

    Every taboo state needs a row; rows for forbidden or target states are
    optional and default to action index 0.  Masses are JSON numbers in float range.
    A ``dist`` key names the action whose label JSON writes as that key, so
    the action labelled 2 is keyed ``"2"``; a key two labels share is an error.
    """
    doc = _parse(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("policy"), list):
        raise ModelFormatError("policy document must contain a 'policy' list")
    action_at = _text_index(model.actions)
    matrix = np.zeros((model.n_states, model.n_actions))
    seen = set()
    for entry in doc["policy"]:
        if not isinstance(entry, dict) or "state" not in entry or "dist" not in entry:
            raise ModelFormatError("policy entries need 'state' and 'dist' keys")
        label = entry["state"]
        i = _find(model._state_get, label)
        if i is None:
            raise ModelFormatError(f"policy names unknown state {label!r}")
        if i in seen:
            raise ModelFormatError(f"duplicate policy row for state {label!r}")
        seen.add(i)
        dist = entry["dist"]
        if not isinstance(dist, dict):
            raise ModelFormatError(f"policy row for {label!r} must map actions to mass")
        for act, mass in dist.items():
            if act not in action_at:
                raise ModelFormatError(f"policy names unknown action {act!r}")
            if action_at[act] is None:
                raise ModelFormatError(f"policy action {act!r} names more than one action")
            if type(mass) is not float:
                _check_number(mass, f"policy row for {label!r} mass of {act!r}")
            matrix[i, action_at[act]] = mass
    missing = [i for i in range(model.n_states) if i not in seen]
    if missing and missing[0] < model.n_taboo:
        raise ModelFormatError(f"policy is missing taboo state {model.states[missing[0]]!r}")
    matrix[missing, 0] = 1.0
    return make_policy(model, matrix)


def serialize_policy(model: MdpModel, policy: Policy) -> str:
    """Serialize a policy to the JSON document format (taboo rows only are required)."""
    matrix = _check_policy(model, policy.matrix).tolist()
    rows = [
        {"state": s, "dist": {u: x for u, x in zip(model.actions, row) if x != 0.0}}
        for s, row in zip(model.states, matrix)
    ]
    return json.dumps({"policy": rows}, indent=2)


def induced_matrix(model: MdpModel, policy: Policy) -> np.ndarray:
    """Chain transition matrix under a policy, ``P[i, j] = sum_u pi[i, u] p[i, u, j]``.

    The map is affine in the policy: mixing two policies row-wise mixes the
    induced matrices with the same weights.
    """
    _check_policy(model, policy.matrix)
    return np.einsum("iu,iuj->ij", policy.matrix, model.transitions)
