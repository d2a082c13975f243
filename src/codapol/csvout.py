"""The CSV writer: every CSV output goes through :class:`CsvWriter`."""

import math

import numpy as np

# Fields per writer block (at least one line), and values per % call or per
# _float_fields batch.  Freed block temporaries stay resident (glibc): after
# the 499-row bifurcation.csv of perfbench's fs-sweep, 2.5 MB at 2**14, 5 MB at
# 2**15, and 2**13 was slower.  One % call per block gave the same bytes and
# time, but perfbench big-lattice's peak RSS rose 60.41 -> 60.59 MB in 10 of 10
# alternating pairs (2 cores, Python 3.11, numpy 2.4); an unused 4-line
# function moved lattice's by 0.3 MB.
_BLOCK_FIELDS = 2**14
_FORMAT_BATCH = 4096


def _percent_fields(fmt: str, values: list) -> np.ndarray:
    """uint8 [len(values), width]: row i is ``fmt % values[i]``, in batched % calls."""
    text = "".join(fmt * len(batch) % tuple(batch) for batch in (
        values[i:i + _FORMAT_BATCH] for i in range(0, len(values), _FORMAT_BATCH)))
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(values), -1)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Word v of the first table holds the 4 digits of v, each followed by a
    0xFF byte (memory order); entry v of the second counts v's trailing zeros
    as a 4-digit group.  Both fill [10, 10, 10, 10] arrays by broadcasting, as
    freed temporaries stay resident."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    words = np.full((10, 10, 10, 10, 8), 0xFF, np.uint8)
    for j in range(4):
        words[..., 2 * j] = digit.reshape((10,) + (1,) * (3 - j))
    zeros = np.zeros((10, 10, 10, 10), np.uint8)
    zeros[..., 0] = 1
    zeros[..., 0, 0] = 2
    zeros[..., 0, 0, 0] = 3
    zeros[0, 0, 0, 0] = 4
    return words.view(np.uint64).ravel(), zeros.ravel()


def _field_templates() -> np.ndarray:
    """uint64 [24 * 17 * 2, 6]: the 48-byte field of decade X in -8..15 with z
    trailing zeros among its 17 digits and sign s, at row (X + 8) * 34 + 2 z + s.
    The slots are the sign, a "0.000" prefix, each digit followed by a point
    slot, an "e-0d" suffix and the comma.  A digit slot holds the mask that the
    digit is ANDed with: 0xFF keeps it, 0xEF turns a dropped "0" into a space."""
    rows = []
    for x in range(-8, 16):
        for zeros in range(17):
            kept = max(x + 1, 17 - zeros)
            point = x if x >= 0 else 0 if x < -4 else None  # the digit it follows
            digits = b"".join((b"\xff" if j < kept else b"\xef") + (b"." if j == point < kept - 1
                              else b" ") for j in range(17))
            prefix = b"0." + b"0" * (-1 - x) if -4 <= x < 0 else b""
            suffix = b"e-0%d" % -x if x < -4 else b""
            rows += [sign + prefix.ljust(5) + digits + suffix.ljust(7) + b","
                     for sign in (b" ", b"-")]
    return np.frombuffer(b"".join(rows), np.uint64).reshape(len(rows), -1)


_DIGIT_WORDS, _TRAILING_ZEROS = _digit_tables()
_FIELD_TEMPLATES = _field_templates()
# word 0 of a field ANDed with the lead digit, which sits in its byte 6
_LEAD_WORDS = np.frombuffer(b"".join(b"\xff" * 6 + b"%d\xff" % d for d in range(10)), np.uint64)
_POW5 = np.array([5**k for k in range(25)], np.uint64)
# uint64 operands for uint64 arrays, whose promotion with Python ints differs
# between numpy 1.x and 2.x
_U1, _U32, _U64, _ULOW32 = (np.uint64(v) for v in (1, 32, 64, 2**32 - 1))
_E16, _E17 = np.uint64(10**16), np.uint64(10**17)
# below this many distinct values, % is faster than _exact_fields' ~70 us of calls
_EXACT_MIN = 128


def _scaled(mant: np.ndarray, exp: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(x 10**k) as uint64, and whether x 10**k rounds half to even above
    it, for x = mant 2**(exp - 1075) (int64 significands with the hidden bit,
    biased exponents and k in 0..24)."""
    r = 1075 - k - exp  # x 10**k = mant 5**k 2**-r
    m = (mant << np.maximum(1 - r, 0)).view(np.uint64)
    r = np.maximum(r, 1, out=r).view(np.uint64)
    f = _POW5[k]
    lo = m * f
    m_hi, f_hi = m >> _U32, f >> _U32
    m &= _ULOW32  # the low limbs, in place
    f &= _ULOW32
    mid = m * f >> _U32
    mid += m * f_hi
    mid += m_hi * f
    hi = m_hi * f_hi + (mid >> _U32)
    q = hi << (_U64 - r) | lo >> r
    half = _U1 << (r - _U1)
    return q, (lo & (half + half - _U1)) + (q & _U1) > half


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits D of float64 ``x``, finite with 1e-7 <= |x|
    < 1e16, as int64, and k, where |x| 10**k rounds to D.

    D is exact.  For x = M 2**E (M < 2**53 with the hidden bit) in decade X
    (10**X <= |x| < 10**(X + 1)), %.17g prints the 17 digits of
    D = round-half-even(|x| 10**k), k = 16 - X in 1..24, which is
    M 5**k 2**(E + k).  As 5**24 < 2**56, and E + k <= 3 when it is not
    negative, M 5**k 2**max(E + k + 1, 0) < 2**113 is computed exactly as a
    (hi, lo) pair of uint64 words from 32-bit limbs.  It is then shifted right
    by max(-E - k, 1) < 64 bits, so the remainder is the low bits of lo, and
    the rounding compares it with half the divisor, rounding a tie to even.
    X starts as floor(log10 |x|), which can miss by one next to a power of
    ten; rows whose floor(|x| 10**k) lies outside [10**16, 10**17) are re-run
    once, at the next k.  The floor decides, as double(1e-7) and double(1e-6),
    just below 10**-7 and 10**-6, round up to 10**16 at the k one too small.
    No D carries to 10**17: that needs |x| within 5e-18 (relative) below a
    power of ten, and the closest double below one in the fast range,
    double(1e-7), is 4.5e-17 below it.  (A carry would index past
    ``_LEAD_WORDS`` and raise.)
    """
    bits = x.view(np.int64)
    exp, mant = bits >> 52 & 0x7FF, bits & (2**52 - 1) | 2**52
    k = 16 - np.floor(np.log10(np.abs(x))).astype(np.int64)
    q, up = _scaled(mant, exp, k)
    low = q < _E16
    redo = np.flatnonzero(low | (q >= _E17))
    if len(redo):
        k[redo] += np.where(low[redo], 1, -1)
        q[redo], up[redo] = _scaled(mant[redo], exp[redo], k[redo])
    q += up
    return q.view(np.int64), k


def _exact_fields(x: np.ndarray, out: np.ndarray) -> None:
    """Write the fields of float64 ``x``, finite with 1e-7 <= |x| < 1e16, to
    uint64 [len(x), 6] ``out``: row i holds the bytes of ``"%.17g," % x[i]``
    with spaces in between, as laid out by ``_field_templates``."""
    digits, k = _decimal(x)
    lead = digits // 10**16
    digits -= lead * 10**16
    groups = np.empty((len(x), 4), np.int64)  # the other 16 digits, 4 at a time
    for j, unit in enumerate((10**12, 10**8, 10**4)):
        groups[:, j] = digits // unit
        digits -= groups[:, j] * unit
    groups[:, 3] = digits
    zeros = np.take(_TRAILING_ZEROS, groups)
    trailing = zeros[:, 0]
    for j in (1, 2, 3):
        trailing = zeros[:, j] + (zeros[:, j] == 4) * trailing
    code = (24 - k) * 34 + 2 * trailing + (x < 0)
    np.take(_FIELD_TEMPLATES, code, axis=0, out=out)
    out[:, 1:5] &= np.take(_DIGIT_WORDS, groups)
    out[:, 0] &= np.take(_LEAD_WORDS, lead)


def _float_fields(values: np.ndarray) -> np.ndarray:
    """uint8 [n, 48] fields of float64 ``values``: row i holds the bytes of
    ``"%.17g," % values[i]`` with spaces in between.  From ``_EXACT_MIN``
    values on, those with 1e-7 <= |x| < 1e16 go through ``_exact_fields`` in
    batches; the rest (zeros, subnormals, |x| < 1e-7 or >= 1e16, inf, NaN)
    and smaller sets go through %."""
    if len(values) < _EXACT_MIN:
        return _percent_fields("%-47.17g,", values.tolist())
    fields = np.empty((len(values), 48), np.uint8)
    for i in range(0, len(values), _FORMAT_BATCH):
        batch, out = values[i:i + _FORMAT_BATCH], fields[i:i + _FORMAT_BATCH]
        size = np.abs(batch)
        fast = (size >= 1e-7) & (size < 1e16)
        _exact_fields(np.where(fast, batch, 1.0), out.view(np.uint64))
        slow = np.flatnonzero(~fast)
        if len(slow):
            out[slow] = _percent_fields("%-47.17g,", batch[slow].tolist())
    return fields


def _column_fields(column, lines: slice) -> np.ndarray:
    """uint8 [lines, width] padded fields of ``column`` over ``lines``,
    formatting each distinct value once."""
    if isinstance(column, tuple):
        labels, codes = column
        used, index = np.unique(np.asarray(codes)[lines], return_inverse=True)
        values = [labels[c] for c in used.tolist()]
        table = _percent_fields(f"%-{max(map(len, values))}s,", values)
    elif np.asarray(column).dtype.kind == "f":  # by bits, so -0.0 and 0.0 stay apart
        bits = np.ascontiguousarray(column[lines], dtype=np.float64).view(np.int64)
        used, index = np.unique(bits.reshape(-1), return_inverse=True)
        table = _float_fields(used.view(np.float64))
    else:
        used, index = np.unique(np.asarray(column)[lines].reshape(-1), return_inverse=True)
        table = _percent_fields("%-21d,", used.tolist())
    return table[:, (table != ord(" ")).any(axis=0)][index].reshape(lines.stop - lines.start, -1)


def _join(parts: list) -> list:
    """The columns of ``parts`` (lists of columns) with their lines in turn; a
    text column joins the label lists and offsets the codes."""
    joined = []
    for cols in zip(*parts):
        if not isinstance(cols[0], tuple):
            joined.append(np.concatenate(cols))
            continue
        offsets = np.cumsum([0] + [len(c[0]) for c in cols]).tolist()
        joined.append(([label for c in cols for label in c[0]],
                       np.concatenate([np.asarray(c[1]) + o for c, o in zip(cols, offsets)])))
    return joined


def _rest(columns: list, lines: slice) -> list:
    """A copy of ``lines`` of ``columns``; a text column keeps only the labels they read."""
    rest = []
    for c in columns:
        if isinstance(c, tuple):
            used, codes = np.unique(np.asarray(c[1])[lines], return_inverse=True)
            c = ([c[0][i] for i in used.tolist()], codes.reshape(-1))
        rest.append(c if isinstance(c, tuple) else np.array(c[lines]))
    return rest


class CsvWriter:
    """Context manager that writes ``header``, then the lines of each
    :meth:`write` call, to ``path``.

    A call's columns are int or bool arrays, float arrays of shape [lines] or
    [lines, k], and text columns ``(labels, codes)``, whose line i reads
    ``labels[codes[i]]``.  Every call gives the same columns, but a text
    column may bring its own labels.  Ints print as ``%d`` and floats as C's
    ``%.17g`` (round-trip exact); lines end in ``\\n`` and no field needs
    quoting.  The writer packs the lines into blocks of at most
    ``_BLOCK_FIELDS`` fields, a size no other module knows; lines short of a
    block wait for a later call or the exit, so a caller leaves the arrays
    it passed unchanged until then (on an exception they are dropped).  Each
    block formats every distinct value of a column once into a fixed-width
    field with spaces in it: floats by ``_float_fields``, ints and labels by
    ``%`` in batched calls padded on the right (21 bytes hold any int64).  It
    gathers the fields into fixed-width lines and drops the spaces, which no
    number or label contains: the bytes are those of one ``%`` call per
    field, which the tests check, whatever the blocks and calls.
    """

    def __init__(self, path, header: str):
        self._path, self._header = path, header
        self._held, self._lines = [], 0  # the calls not yet written, and their line count

    def __enter__(self) -> "CsvWriter":
        self._fh = open(self._path, "wb")
        self._fh.write(self._header.encode() + b"\n")
        return self

    def __exit__(self, exc_type, *_) -> None:
        with self._fh:
            if exc_type is None:
                self._flush(self._lines)

    def write(self, columns) -> None:
        """Add the lines of ``columns``, and write every full block."""
        shapes = [np.shape(c[1] if isinstance(c, tuple) else c) for c in columns]
        if shapes[0][0]:
            self._held.append(columns)
            self._lines += shapes[0][0]
            self._step = max(1, _BLOCK_FIELDS // sum(math.prod(s[1:]) for s in shapes))
            self._flush(self._lines - self._lines % self._step)

    def _flush(self, end: int) -> None:
        """Write the first ``end`` held lines in blocks of ``_step`` lines; hold the rest."""
        if not end:
            return
        columns = self._held[0] if len(self._held) == 1 else _join(self._held)
        for start in range(0, end, self._step):
            lines = slice(start, min(start + self._step, end))
            # the last block stays referenced until the next one is made: freed sooner,
            # glibc trimmed the heap and re-faulted ~1 MB a block, 29k page faults in
            # the main grid's bifurcation.csv against 3.4k
            self._block = np.concatenate([_column_fields(c, lines) for c in columns], axis=1)
            self._block[:, -1] = ord("\n")
            self._fh.write(self._block.tobytes().translate(None, b" "))
        self._held = [_rest(columns, slice(end, self._lines))] if end < self._lines else []
        self._lines -= end
