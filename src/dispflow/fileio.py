"""Field serialization: 16-bit binary PGM (lossy quantization with recorded
range) and lossless CSV; and the plain-text writer of every other file."""

from __future__ import annotations

import numpy as np

from .grid import ScalarField


class FormatError(ValueError):
    pass


def write_pgm(path, f: ScalarField):
    """Binary P5 graymap, maxval 65535, with a comment line carrying the
    float range and grid spacings for dequantization."""
    v = f.values
    lo, hi = float(np.min(v)), float(np.max(v))
    scale = 65535.0 / (hi - lo) if hi > lo else 0.0
    q = np.round((v - lo) * scale).astype(">u2")
    header = (
        f"P5\n# dispflow range {lo!r} {hi!r} spacing {f.dx1!r} {f.dx2!r}\n"
        f"{f.n2} {f.n1}\n65535\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(q.tobytes())


def _dispflow_values(text, form, where):
    """The numbers of a '# dispflow' header line in the writer's form, whose
    tokens form lists with None for each number; anything else is a
    FormatError naming the line."""
    t = text.split()
    try:
        if len(t) == len(form) and all(f is None or f == x for f, x in zip(form, t)):
            return tuple(float(x) for f, x in zip(form, t) if f is None)
    except ValueError:
        pass
    raise FormatError(f"malformed dispflow comment in {where} header: {text.strip()!r}")


_PGM_COMMENT = ("#", "dispflow", "range", None, None, "spacing", None, None)
_CSV_COMMENT = ("#", "dispflow", "spacing", None, None)


def read_pgm(path) -> ScalarField:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"P2":
        raise FormatError("ASCII (P2) graymaps are not supported; use P5")
    if data[:2] != b"P5":
        raise FormatError("not a binary PGM (missing P5 magic)")
    # tokenize the header: magic, optional comments, width, height, maxval
    pos = 2
    tokens = []
    lo = hi = None
    dx1 = dx2 = 0.0
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(data):
            raise FormatError("truncated PGM header")
        if data[pos : pos + 1] == b"#":
            end = data.find(b"\n", pos)
            text = data[pos : end if end >= 0 else pos + 80].decode("ascii", "replace")
            if end < 0:
                raise FormatError(f"unterminated comment in PGM header: {text!r}")
            if text.split()[1:2] == ["dispflow"]:
                lo, hi, dx1, dx2 = _dispflow_values(text, _PGM_COMMENT, "PGM")
            pos = end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        header = b" ".join(tokens).decode("ascii", "replace")
        raise FormatError(f"non-integer width, height or maxval in PGM header: {header!r}") from None
    if maxval != 65535:
        raise FormatError(f"expected maxval 65535, got {maxval}")
    pos += 1  # single whitespace after maxval
    if len(data) - pos < 2 * width * height:
        raise FormatError("pixel data size mismatch")
    raw = np.frombuffer(data, dtype=">u2", count=width * height, offset=pos)
    v = raw.reshape(height, width).astype(float)
    if lo is not None and hi is not None and hi > lo:
        v = lo + v * (hi - lo) / 65535.0
    elif lo is not None:
        v = np.full_like(v, lo)
    return ScalarField(v, dx1, dx2)


def write_csv(path, f: ScalarField):
    """The spacing header, then one line per row of f.values: the bytes of
    np.savetxt(fh, f.values, delimiter=",", fmt="%.17g"), each row
    formatted with one % of a row template."""
    line = ",".join(["%.17g"] * f.values.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# dispflow spacing {f.dx1!r} {f.dx2!r}\n")
        fh.writelines(line % tuple(row) for row in f.values.tolist())


def read_csv(path) -> ScalarField:
    dx1 = dx2 = 0.0
    with open(path) as fh:
        first = fh.readline()
        if first.startswith("# dispflow spacing"):
            dx1, dx2 = _dispflow_values(first, _CSV_COMMENT, "CSV")
        else:
            fh.seek(0)
        v = np.loadtxt(fh, delimiter=",", ndmin=2)
    return ScalarField(v, dx1, dx2)


def write_image(path, f: ScalarField):
    """Dispatch on extension: .pgm (quantized) or .csv (lossless)."""
    path = str(path)
    if path.endswith(".pgm"):
        write_pgm(path, f)
    elif path.endswith(".csv"):
        write_csv(path, f)
    else:
        raise FormatError(f"unsupported extension for {path!r}")


def write_text(path, header: str, lines=()):
    """header, then each string of lines, to path."""
    with open(path, "w") as fh:
        fh.write(header)
        fh.writelines(lines)


def read_image(path) -> ScalarField:
    path = str(path)
    if path.endswith(".pgm"):
        return read_pgm(path)
    if path.endswith(".csv"):
        return read_csv(path)
    raise FormatError(f"unsupported extension for {path!r}")
