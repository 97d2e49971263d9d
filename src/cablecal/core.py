"""Shared joint-space types for the 3 positioning joints of a cable-driven arm.

Units are fixed across the whole toolkit: joint 1 and joint 2 are revolute
(degrees), joint 3 is prismatic (millimetres). Every position-like quantity
that crosses a module boundary uses this (deg, deg, mm) convention; joint
limits hold their bounds as (j1, j2, j3) tuples of floats.

One table, ``STATE_BLOCKS``, owns the layout of the robot-state vector:
``FULL_SCHEMA`` and ``REPORTED_JOINTS`` are built from it, and the simulator
walks it to assemble each row.

The module also owns the artifact file format. Every bag, dataset,
trajectory, model, report and manifest file is written through
``_replacing``, which replaces all the files of one artifact together or
none of them, as ``%.17g`` CSV (``_write_matrix``) or indented JSON
(``write_json``), and read back through the checked ``_read_matrix`` and
``_read_json``: a CSV must have the header its saver wrote (its rows are
parsed with the writer's own exact digit arithmetic, ``np.loadtxt`` only
for text the writer never writes), and every JSON
reader is one table of entries for ``_checked``, which reports a bad entry
as ``<file>: entry '<key>': <reason>``. Each setting's rule is one ``_rule``
check in the module that uses the value.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import secrets
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Channel suffixes for the 8 motor/joint channels of one arm
#: (7 arm joints plus the grasper channel).
CHANNELS = ("j1", "j2", "j3", "j4", "j5", "j6", "j7", "grasper")


class SchemaError(ValueError):
    """Feature schema is inconsistent or does not match the expected layout."""


@dataclass(frozen=True)
class JointLimits:
    """Inclusive per-joint position limits, with derived center and range.

    ``min`` and ``max`` are (j1 deg, j2 deg, j3 mm) tuples of floats, so
    limits compare and hash by value. The center is c = 0.5 * (max + min)
    and the range is r = max - min, computed per joint; both are used by the
    trajectory scaling rules.
    """

    min: tuple
    max: tuple

    def __post_init__(self) -> None:
        for name in ("min", "max"):
            v = _rule(f"limits {name}", "3 finite numbers", lambda v: True,
                      ValueError, count=3)(getattr(self, name))
            object.__setattr__(self, name, tuple(map(float, v)))
        if not all(lo < hi for lo, hi in zip(self.min, self.max)):
            raise ValueError(f"limits must satisfy min < max per joint: "
                             f"{self.min} vs {self.max}")

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.array(self.max) + np.array(self.min))

    @property
    def range(self) -> np.ndarray:
        return np.array(self.max) - np.array(self.min)

    def to_dict(self) -> dict:
        return {"min": list(self.min), "max": list(self.max)}


def _finite(value) -> bool:
    """No NaN, infinity or integer too large for a float in a parsed JSON or
    TOML value. Lists and tables are walked to any depth, ragged ones too
    (per-layer weights), and a numeric string inside a list, such as
    ``"nan"``, counts as a number; other values (strings, booleans, dates)
    pass. A numeric ndarray is checked as it is."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        try:
            value = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError):  # ragged, not numeric
            return all(_finite(v) for v in value)       # or a huge integer
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    return isinstance(value, bool) or not isinstance(value, (int, float)) or _real(value)


def _real(value) -> bool:
    """``value`` is a finite real number, and not a boolean."""
    try:
        return not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or a huge integer
        return False


def _rule(name: str, rule: str, ok, error, count=None, number=True):
    """The check of setting ``name``: it returns ``value`` if ``ok(value)``
    (or, with ``count``, ``count`` values that each pass, as a tuple), else
    raises ``error("<name> must be <rule>, got <value>")``. Unless
    ``number`` is False, a value must first be a finite real number."""
    def check(value):
        try:
            vals = (value,) if count is None else tuple(value)
            good = len(vals) == (count or 1) and all(
                (_real(v) or not number) and ok(v) for v in vals)
        except (TypeError, ValueError, OverflowError):
            good = False
        if not good:
            raise error(f"{name} must be {rule}, got {value!r}")
        return value if count is None else tuple(value)
    return check


def json_digest(obj) -> str:
    """sha256 (hex) of ``obj`` as compact, key-sorted JSON: the one digest
    behind model checksums and manifest config hashes."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


#: Simulator defaults; real robots override these in the config file.
DEFAULT_LIMITS = JointLimits((0, 0, 0), (90, 90, 250))


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered robot-state feature catalog plus the model-input selection mask.

    The name list fixes the column order of every recorded stream, dataset
    and trained model; each of those artifacts stores its schema, so a model
    can refuse inputs laid out differently.
    """

    names: tuple
    selected_mask: tuple

    def __post_init__(self) -> None:
        if len(self.names) != len(self.selected_mask):
            raise SchemaError("names and selected_mask must have equal length")
        if len(set(self.names)) != len(self.names):
            raise SchemaError("feature names must be unique")

    @property
    def dim_full(self) -> int:
        return len(self.names)

    @property
    def dim_selected(self) -> int:
        return int(sum(1 for m in self.selected_mask if m))

    def selected_indices(self) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.selected_mask, dtype=bool))

    def selected_names(self) -> tuple:
        return tuple(n for n, m in zip(self.names, self.selected_mask) if m)

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def with_all_selected(self) -> "FeatureSchema":
        return FeatureSchema(self.names, tuple(True for _ in self.names))

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "selected_mask": [bool(m) for m in self.selected_mask],
        }


def _block(name: str, suffixes, selected: bool = False) -> tuple:
    """One ``STATE_BLOCKS`` entry: columns named ``<name>_<suffix>``."""
    return name, tuple(f"{name}_{s}" for s in suffixes), selected


_POSE = ("pos_x", "pos_y", "pos_z", *(f"rot_{r}{c}" for r in range(3) for c in range(3)))

#: The robot-state vector in column order, one (block name, column names,
#: selected by the default input mask) entry per block: the one statement
#: of the layout, which ``sim.SimSession`` walks to assemble its rows.
STATE_BLOCKS = (
    ("status", ("timestamp", "run_level", "sublevel", "last_sequence",
                "arm_type", "grasper_desired"), False),
    _block("encoder_value", CHANNELS),
    _block("encoder_offset", CHANNELS),
    _block("motor_position", CHANNELS),
    _block("joint_position", CHANNELS, selected=True),
    _block("motor_velocity", CHANNELS),
    _block("joint_velocity", CHANNELS),
    _block("desired_joint_position", CHANNELS),
    _block("desired_motor_position", CHANNELS),
    _block("desired_joint_velocity", CHANNELS),
    _block("desired_motor_velocity", CHANNELS),
    _block("motor_current", CHANNELS),
    _block("motor_torque", CHANNELS, selected=True),
    _block("jacobian_velocity", range(6)),     # end-effector Jacobian terms
    _block("jacobian_force", range(6)),
    _block("ee", _POSE),                       # measured pose: xyz + rotation
    _block("desired_ee", _POSE),
)

#: Canonical schema instance shared by recorder, datasets and models: 138
#: columns, of which the joint positions and motor torques are selected.
FULL_SCHEMA = FeatureSchema(
    tuple(c for _, cols, _ in STATE_BLOCKS for c in cols),
    tuple(sel for _, cols, sel in STATE_BLOCKS for _ in cols))

#: The reported positions of the three positioning joints, which a
#: calibration corrects.
REPORTED_JOINTS = next(cols for name, cols, _ in STATE_BLOCKS
                       if name == "joint_position")[:3]

#: The check of a feature schema entry in a ``_checked`` table.
_SCHEMA_CHECK = ({"names": ("string", (None,), True),
                  "selected_mask": ("boolean", (None,), True)},
                 lambda d: FeatureSchema(tuple(d["names"].tolist()),
                                         tuple(d["selected_mask"].tolist())))


@contextmanager
def _staged(*paths):
    """One temporary sibling per path, ``.<stem>.<tag>.tmp<suffix>``, created
    exclusively: the random tag, one per block, keeps the siblings of two
    writers of one path apart, and a CSV's sidecar is staged beside it.
    Every path is replaced by its sibling only when the block completes,
    so a failed write leaves all the previous files as they were and no
    temporary file behind. Paths that resolve to one file raise ValueError
    before anything is written."""
    paths = [Path(p) for p in paths]
    real = [p.resolve() for p in paths]
    twice = [p for p, r in zip(paths, real) if real.count(r) > 1]
    if twice:
        raise ValueError(f"{twice[-1]}: one file named twice in one artifact")
    tag, tmps = secrets.token_hex(8), []
    try:
        for p in paths:
            tmp = p.with_name(f".{p.stem}.{tag}.tmp{p.suffix}")
            open(tmp, "x").close()          # fails on a name another writer holds
            tmps.append(tmp)
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


@contextmanager
def _replacing(*paths):
    """One text handle per path, on its ``_staged`` sibling. Newlines are
    written untranslated, so every artifact has the same bytes on every
    platform."""
    with _staged(*paths) as tmps, ExitStack() as stack:
        yield tuple(stack.enter_context(
            open(t, "w", encoding="utf-8", newline="")) for t in tmps)


def write_json(obj, fh) -> None:
    """Indented, key-sorted JSON plus a trailing newline."""
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


#: Values formatted per chunk when writing a CSV (whole rows, at least
#: one): the chunk's arrays take about 0.8 MB, and on a 2-vCPU x86 machine
#: 4096 values formatted faster than 2048 or 8192.
_CSV_CHUNK_VALUES = 4096

#: Longest ``%.17g`` text of a float64, as in ``-2.2250738585072014e-308``.
_TEXT_WIDTH = 24


def _halves(x):
    """Veltkamp's split of float64 ``x`` into hi + lo == x, each of at most
    26 significant bits, so the product of two halves is exact."""
    t = x * 134217729.0                     # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


#: Rows 10**k, hi, lo for k = 0..20: each power is exact in float64.
_POW10 = np.array([(p, *_halves(p)) for p in (float(10 ** k) for k in range(21))]).T

_DIGIT = np.arange(17, dtype=np.int8)[:, None]
_ZERO, _POINT, _MINUS = (np.uint8(ord(c)) for c in "0.-")


def _times_pow10(a: np.ndarray, k: np.ndarray):
    """Dekker's exact product of float64 ``a`` and 10**k (k in 0..20): p,
    the rounded product, and err, with a * 10**k == p + err exactly while
    nothing underflows. The ``_halves`` of ``a`` and of the power make each
    partial product exact."""
    pow10, bh, bl = np.take(_POW10, k, axis=1)
    p = a * pow10
    ah, al = _halves(a)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _digits17(mag: np.ndarray):
    """The ``%.17g`` digits of each float64 ``mag`` >= 0 (at most 1e17): its
    decimal exponent e = floor(log10(mag)) clipped to -4..16, its 17
    significant digits D = round(mag * 10**k), k = 16 - e, and whether D is
    exact.

    D comes from ``_times_pow10``: p = mag * 10**k is rounded, err is its
    exact error, so D = p + floor(err + 1/2). Nothing overflows (mag <=
    1e17 and 10**k <= 1e20) and, wherever 10**16 <= D < 10**17, nothing
    underflows; there p is whole, |err| <= 8 and err has no bit below
    2**-46, so err + 1/2 and its floor are exact. D is exact (the mask is
    True) when 10**16 <= D < 10**17 and it is no tie (err + 1/2 not
    whole), and for zero (e = 0, D = 0). Elsewhere e was misestimated,
    the rounding carried into another decade, or ``%.17g`` prints the value
    in scientific notation; a subnormal or nonzero value below 1e-4 scales
    to a D of other than 17 digits.
    """
    zero = mag == 0
    e = np.clip(np.floor(np.log10(mag + zero)), -4, 16).astype(np.int8)
    p, err = _times_pow10(mag, 16 - e)      # ±0: e = 0 and D = 0
    err += 0.5
    up = np.floor(err)
    d = p.astype(np.int64) + up.astype(np.int64)
    return d, e, ((up != err) & (d >= 10 ** 16) & (d < 10 ** 17)) | zero


def _format_17g(values: np.ndarray, text: np.ndarray) -> int:
    """Write the ``'%.17g' % v`` text of each float64 ``values[i]`` into
    ``text[:, i]`` (``_TEXT_WIDTH`` rows of uint8), padded with NUL bytes.

    A value takes the vectorised path when ``_digits17`` gives its exact
    digits, which ``%.17g`` prints in fixed notation. Python's ``%`` itself
    formats every other value, and their count is returned: exact ties, an
    exponent the digits refute, scientific notation, NaN, infinities and
    subnormals.
    """
    m = len(values)
    mag = np.abs(values)
    np.copyto(mag, 1e17, where=~(mag <= 1e17))  # NaN, inf: 18 digits
    d, e, fast = _digits17(mag)

    # the 17 digits, position-major: d -> 1 + 4 groups of 4 -> digits
    hi, lo = np.divmod(d, 10 ** 8)
    hi, lo = hi.astype(np.uint32), lo.astype(np.uint32)
    groups = np.empty((5, m), np.uint16)
    q = lo // 10000
    groups[4], groups[3] = lo - q * 10000, q
    q = hi // 10000
    groups[2], hi = hi - q * 10000, q
    q = hi // 10000
    groups[1], groups[0] = hi - q * 10000, q
    digits = np.empty((17, m), np.uint8)
    digits[0] = groups[0]
    rest = groups[1:]
    for j in range(3, -1, -1):
        q = rest // 10
        digits[1 + j::4] = rest - q * 10
        rest = q

    # keep the integer digits and every digit up to the last nonzero one
    keep = digits != 0
    for k in range(15, -1, -1):
        keep[k] |= keep[k + 1]
    keep |= _DIGIT <= e
    digits += _ZERO
    digits *= keep                          # trimmed digits become NUL

    # sign, "0.000" prefix for e < 0, digits with the point after digit e
    small = e < 0
    point = e + 1 + small * (16 - e)        # 17: no point among the digits
    np.multiply(np.signbit(values), _MINUS, out=text[0])
    np.multiply(small, _ZERO, out=text[1])
    np.multiply(small, _POINT, out=text[2])
    for j in range(3):
        np.multiply(e < -1 - j, _ZERO, out=text[3 + j])
    body = text[6:]                         # 18 slots: 17 digits, 1 point
    np.multiply(digits, _DIGIT < point, out=body[:17])
    body[17] = 0
    body[1:] += digits * (_DIGIT + 1 > point)
    body[:17] += (keep & (_DIGIT == point)) * _POINT

    slow = np.flatnonzero(~fast)
    pad = "".join(("%.17g" % v).ljust(_TEXT_WIDTH, "\0") for v in values[slow].tolist())
    text[:, slow] = np.frombuffer(pad.encode("ascii"), np.uint8).reshape(
        len(slow), _TEXT_WIDTH).T
    return len(slow)


def _write_matrix(fh, header: list, blocks) -> None:
    """Write 1-D and 2-D column blocks side by side as ``%.17g`` CSV.

    The bytes equal ``np.savetxt(fh, np.column_stack(blocks),
    fmt="%.17g", delimiter=",", header=",".join(header), comments="")``,
    but rows are formatted a chunk of about ``_CSV_CHUNK_VALUES`` values
    at a time, so the blocks are never copied into one matrix. Each chunk
    is cast to float64 (an object that has no float value raises), its
    text is built by ``_format_17g`` in a fixed-width byte table, and the
    padding is dropped before one ``write``. ``%.17g`` reloads every float
    bit-identically. No stage writes an artifact without rows, so zero rows
    raise ``ValueError`` before anything is written.
    """
    cols = [b.reshape(-1, 1) if b.ndim == 1 else b for b in blocks]
    if not len(cols[0]):
        raise ValueError("no data rows to write")
    width = sum(c.shape[1] for c in cols)
    rows = max(1, _CSV_CHUNK_VALUES // width)
    table = np.empty((_TEXT_WIDTH + 1, rows, width), np.uint8)
    table[-1] = ord(",")                    # the separator after each value
    table[-1, :, -1] = ord("\n")
    table = table.reshape(_TEXT_WIDTH + 1, rows * width)
    fh.write(",".join(header) + "\n")
    for s in range(0, len(cols[0]), rows):
        chunk = np.concatenate([c[s:s + rows] for c in cols], axis=1)
        values = chunk.astype(np.float64, copy=False).ravel()
        text = table[:, :len(values)]
        _format_17g(values, text[:-1])
        fh.write(text.T.tobytes().translate(None, b"\0").decode("ascii"))


#: Bytes of a CSV read per block when loading it (cut after the block's
#: last newline): about 6,500 values of a recorded bag, whose temporaries
#: take about 1.6 MB. On a 2-vCPU x86 machine 64 KB blocks read a bag's
#: state.csv about 15% slower, and 256 KB blocks about 10% faster with
#: twice the temporaries.
_READ_BLOCK_BYTES = 1 << 17


def _words(fields) -> np.ndarray:
    """Masks of a 24-byte field (ints, byte i at bits 8i..8i+7) as columns
    of three little-endian uint64 words."""
    return np.array([[f >> s & (1 << 64) - 1 for s in (0, 64, 128)] for f in fields],
                    np.uint64).T.copy()


_FIELD = (1 << 192) - 1
#: Row n: the last n bytes of a field, where a token of n bytes sits.
_TAIL = _words(_FIELD ^ (1 << 8 * (24 - n)) - 1 for n in range(25))
#: Row j: a point at byte j - 1 (row 0: no point), as its high bit, the
#: bytes before it (the integer digits) and the bytes after it.
_POINT_BIT = _words([0] + [0x80 << 8 * q for q in range(24)])
_BEFORE = _words([0] + [(1 << 8 * q) - 1 for q in range(24)])
_AFTER = _words([_FIELD] + [_FIELD ^ (1 << 8 * q + 8) - 1 for q in range(24)])
#: Row j: the digits after the point.
_FRACTION = np.array([0] + list(range(23, -1, -1)), np.int64)
#: The integer 10**k, and 10**(17 - k), for k = 0..16.
_P10 = 10 ** np.arange(17, dtype=np.int64)
_BOUND = _P10[::-1] * 10


def _each_byte(b: int) -> np.uint64:
    return np.uint64(0x0101010101010101 * b)


_LOW7, _HIGH, _LOW4 = map(_each_byte, (0x7F, 0x80, 0x0F))
_SIGN = np.array([1.0, -1.0])

#: The text ``_format_17g`` writes: fixed notation with no trailing zero
#: after the point, or scientific notation.
_TEXT_17G = re.compile(rb"-?(?:(?:0|[1-9][0-9]*)(?:\.[0-9]*[1-9])?"
                       rb"|[1-9](?:\.[0-9]*[1-9])?e[-+][0-9]{2,3})")


def _zero_bytes(x: np.ndarray) -> np.ndarray:
    """The high bit of each byte of ``x`` that is 0 (no carry crosses
    bytes), in place of ``x``."""
    y = x & _LOW7
    y += _LOW7
    x |= y
    x |= _LOW7
    return np.invert(x, out=x)


def _parse_17g(buf: np.ndarray, field: np.ndarray, seps: np.ndarray, out: np.ndarray) -> bool:
    """Parse the tokens that end at ``seps`` (``buf`` offsets, each after the
    previous one) into ``out``, one float64 each, bit-identical to strtod;
    False if one is outside ``_TEXT_17G``. ``field[i]`` is the 24 bytes of
    ``buf`` that end at offset i + 24.

    Each token of at most 24 bytes is read as three uint64 words that end
    where it ends, masked to the bytes after its sign. Bit tricks on the
    words find its point and refuse any other byte but a digit; they move
    the integer digits over the point, and Lemire's multiply-shift turns
    each word of 8 digits into an integer, so the token is D / 10**F with
    D < 10**17 exact. One candidate c is the division, compensated by the
    exact remainder from ``_times_pow10``. c is accepted only if its
    ``_digits17`` are D's digits and the token has the writer's form (no
    leading zero, no trailing zero after the point): then c is within half
    a unit of the 17th digit of the token, closer than any other float64,
    so strtod reads c. A token that is not accepted (scientific notation,
    a rare wrong candidate) must match ``_TEXT_17G`` and goes to
    ``float``, the same correctly rounded strtod.
    """
    starts = np.empty_like(seps)
    starts[0], starts[1:] = 24, seps[:-1] + 1
    body = seps - starts
    if body.max() > 24:
        return False
    neg = buf[starts] == ord("-")
    body -= neg                             # the bytes after the sign
    tail = np.take(_TAIL, body, axis=1)
    x = field[seps - 24].view(np.uint64).reshape(-1, 3).T.copy()
    x &= tail
    dots = _zero_bytes(x ^ _each_byte(ord(".")))
    # the point's byte, from the exponent of its high bit as one float
    _, exp = np.frexp(dots[0] + dots[1] * 2.0 ** 64 + dots[2] * 2.0 ** 128)
    j = exp // 8
    frac = np.take(_FRACTION, j)
    # the high bit of each byte but a digit, and of no point but the one at j
    other = x ^ _each_byte(ord("0"))        # a digit byte becomes 0..9
    np.bitwise_and(other, _LOW7, out=dots)  # dots is scratch from here
    dots += _each_byte(0x76)
    other |= dots
    other &= tail
    other &= _HIGH
    other ^= np.take(_POINT_BIT, j, axis=1)
    del dots, tail
    whole = body - frac - (j > 0)           # integer digits
    first = buf[starts + neg]
    ok = (((other[0] | other[1] | other[2]) == 0)
          & (whole >= 1) & ((frac > 0) | (j == 0)) & (frac <= 20)
          & ((first != ord("0")) | (whole == 1))
          & ((frac == 0) | (x[2] >> np.uint64(56) != ord("0"))))
    del other

    # drop the point: the integer digits move one byte on, then Lemire's
    # multiply-shift makes each word of 8 digits one integer
    before = x & np.take(_BEFORE, j, axis=1)
    x &= np.take(_AFTER, j, axis=1)
    x |= before << np.uint64(8)
    x[1:] |= before[:-1] >> np.uint64(56)
    x &= _LOW4
    np.right_shift(x, np.uint64(8), out=before)
    x *= np.uint64(10)
    x += before
    mask = np.uint64(0x000000FF000000FF)
    np.bitwise_and(x, mask, out=before)
    before *= np.uint64(100 + (1000000 << 32))
    x >>= np.uint64(16)
    x &= mask
    x *= np.uint64(1 + (10000 << 32))
    x += before
    x >>= np.uint64(32)
    del before
    v = x.view(np.int64)
    ok &= v[0] < 10                         # at most 17 digits
    np.minimum(v[0], 9, out=v[0])
    D = v[0] * 10 ** 16 + v[1] * 10 ** 8 + v[2]
    del x, v

    frac = np.minimum(frac, 20)
    Dh = D.astype(np.float64)
    Dl = (D - Dh.astype(np.int64)).astype(np.float64)
    P = np.take(_POW10[0], frac)
    c = Dh / P
    p, err = _times_pow10(c, frac)
    c += ((Dh - p) - err + Dl) / P

    digits, e, exact = _digits17(c)
    k = 16 - e - frac
    ok &= exact & (k >= 0) & (k <= 16)
    k = np.clip(k, 0, 16)
    ok &= (D < np.take(_BOUND, k)) & (D * np.take(_P10, k) == digits)
    c *= np.take(_SIGN, neg.view(np.int8))
    for i in np.flatnonzero(~ok).tolist():
        text = buf[starts[i]:seps[i]].tobytes()
        if not _TEXT_17G.fullmatch(text):
            return False
        c[i] = float(text)
    out[:] = c
    return True


def _load_17g(path: Path, width: int):
    """The rows after the header of the CSV at ``path`` as one float64
    matrix, bit-identical to ``np.loadtxt``, or None if its text is not
    what ``_write_matrix`` writes: rows of ``width`` tokens of
    ``_TEXT_17G`` joined by ``,``, each ending in ``\n``.

    A first pass counts the rows, so the matrix is allocated once; the
    second reads blocks of about ``_READ_BLOCK_BYTES`` into one buffer,
    cuts each after its last newline and parses it with ``_parse_17g``.
    """
    with open(path, "rb") as fh:
        if b"\r" in fh.readline():
            return None
        data = fh.tell()
        rows = sum(block.count(b"\n") for block in
                   iter(lambda: fh.read(_READ_BLOCK_BYTES), b""))
        fh.seek(data)
        mat = np.empty((rows, width))
        flat = mat.reshape(-1)
        buf = np.zeros(24 + _READ_BLOCK_BYTES, np.uint8)
        field = np.ndarray((len(buf) - 23,), "V24", buf, strides=(1,))
        done = held = 0
        while got := fh.readinto(memoryview(buf)[24 + held:]):
            n = held + got
            cut = buf[24:24 + n].tobytes().rfind(b"\n") + 1
            if not cut:
                return None                 # a row longer than a block
            seps = np.flatnonzero((buf[24:24 + cut] == ord(",")) | (buf[24:24 + cut] == ord("\n")))
            nl = buf[24 + seps] == ord("\n")
            if (len(seps) % width or done + len(seps) > len(flat)
                    or not nl[width - 1::width].all() or np.count_nonzero(nl) * width != len(seps)
                    or not _parse_17g(buf, field, seps + 24, flat[done:done + len(seps)])):
                return None
            done += len(seps)
            held = n - cut
            buf[24:24 + held] = buf[24 + cut:24 + n]
        return mat if held == 0 and done == len(flat) else None


def _read_matrix(path: Path, header, error) -> np.ndarray:
    """A CSV that ``_write_matrix`` wrote with ``header``: its header line
    must name the same columns in the same order, and one or more rows of
    as many finite values follow. ``error`` (the caller's error class) names
    the file and the first column that differs, or the first bad row.

    The rows are read by ``_load_17g``, which accepts a value only where
    the writer's own digits (``_digits17``) reproduce its text, and passes
    other tokens of the writer's grammar to ``float``; each value has the
    bits ``np.loadtxt`` gives. strtod's slow path for 16-17 significant
    digits is most of ``np.loadtxt``'s time on this text. A file with any
    text outside that grammar goes whole to ``np.loadtxt``, so every
    accepted input and every error message is as before."""
    header = list(header)
    try:
        with open(path, encoding="utf-8") as fh:
            names = fh.readline().rstrip("\n").split(",")
            rows = any(line.strip() for line in fh)     # stops at the first row
        if names != header:
            k = len(os.path.commonprefix([names, header]))
            got, want = (repr(h[k]) if k < len(h) else "none" for h in (names, header))
            raise _Bad(f"header column {k + 1} is {got}, expected {want} "
                       f"({len(names)} columns, expected {len(header)})")
        if not rows:
            raise _Bad("no data rows")
        mat = _load_17g(path, len(header))
        if mat is None:
            mat = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (ValueError, _Bad) as exc:       # UnicodeDecodeError too
        raise error(f"{path}: {exc}") from exc
    if mat.shape[1] != len(header):
        raise error(f"{path}: {mat.shape[1]} columns, expected {len(header)}")
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if len(bad):
        raise error(f"{path}: row {bad[0]} holds NaN or infinite values")
    return mat


def _read_json(path: Path, error) -> dict:
    """The top-level object of a JSON file; ``error`` (the caller's error
    class) names the file when it is not valid JSON or not an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:       # JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: top level must be a JSON object")
    return doc


#: JSON type names of the Python types a JSON or TOML parser returns.
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "integer", float: "number", type(None): "null"}


class _Bad(Exception):
    """What is wrong with one entry; ``_checked`` adds the file and key."""


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _checked(doc, table: dict, path, error, where: str = ""):
    """The entries of ``doc``, a parsed JSON object (an array: keys "0", "1",
    ...), checked against ``table``; a bad one raises ``error("<path>: entry
    '<key>': <reason>")``, nested keys dotted. ``table`` maps each key ("*":
    any other; else an unknown key is an error) to ``(JSON type, check,
    required)``, or to a function of the entries checked before it that
    returns one. The type is a name ("number" takes integers, never
    booleans), a tuple of names, or None for any. The check is None (the
    value, walked by ``_finite``), a shape such as ``(None, 3)`` (an array
    of leaves of the type, as one ndarray), a table or a ``(table, build)``
    pair (the checked entries, or their build), or a function that returns
    the value or raises ValueError."""
    items = doc if isinstance(doc, dict) else {str(i): v for i, v in enumerate(doc)}
    out = {}
    for key in [k for k in table if k != "*"] + [k for k in items if k not in table]:
        try:
            spec = table.get(key, table.get("*"))
            if spec is None:
                raise _Bad("unknown key")
            kind, check, required = spec(out) if callable(spec) else spec
            if key in items:
                out[key] = _entry(items[key], kind, check, path, error, where + key)
            elif required:
                raise _Bad("missing")
        except _Bad as exc:
            raise error(f"{path}: entry '{where}{key}': {exc}") from exc.__cause__
    return out if isinstance(doc, dict) else list(out.values())


def _entry(value, kind, check, path, error, name: str):
    """One entry of a ``_checked`` table."""
    shaped = isinstance(check, tuple) and not isinstance(check[0], dict)
    want = ("array",) if shaped else (kind,) if isinstance(kind, str) else kind
    got = _json_type(value)
    if want and got not in want and not (got == "integer" and "number" in want):
        raise _Bad(f"expected {' or '.join(want)}, got {got}")
    if value is None:
        return None
    if isinstance(check, dict):
        check = (check, None)
    if isinstance(check, tuple) and not shaped:
        value, check = _checked(value, check[0], path, error, name + "."), check[1]
    elif not (shaped or _finite(value)):
        raise _Bad("must be finite")
    try:
        return _array(value, kind, check) if shaped else check(value) if check else value
    except (ValueError, TypeError) as exc:
        raise _Bad(exc) from exc


def _array(value: list, kind: str, shape: tuple) -> np.ndarray:
    """``value`` as one ndarray of ``shape`` (None: any length) whose leaves
    all have the JSON type ``kind``: a boolean never passes for a number."""
    arr = np.array(value, dtype=object)     # ragged rows stay lists
    got = {_JSON_TYPES.get(t, t.__name__) for t in set(map(type, arr.flat))}
    allowed = {kind, "integer"} if kind == "number" else {kind}
    if (arr.ndim != len(shape) or not got <= allowed
            or any(n not in (None, m) for n, m in zip(shape, arr.shape))):
        want = str(tuple("n" if n is None else n for n in shape)).replace("'", "")
        raise ValueError(f"expected a {want} array of {kind}s, got a {arr.shape} "
                         f"array of {'/'.join(sorted(got))}")
    try:
        arr = arr.astype({"number": float, "integer": int, "boolean": bool,
                          "string": str}[kind])
    except OverflowError:               # an integer too large for a float
        raise ValueError("must be finite") from None
    if kind == "number" and not _finite(arr):
        raise ValueError("must be finite")
    return arr


def _one_of(*choices):
    """A check that passes only one of ``choices``."""
    def check(value):
        if value not in choices:
            raise ValueError(f"expected {' or '.join(map(repr, choices))}, "
                             f"got {value!r}")
        return value
    return check
