"""Exact arithmetic for step-2 stratified groups in exponential coordinates.

A group element is a plain numpy vector of length ``n`` stored blockwise:
the first ``m1`` entries are the first-layer block, the remaining ``m2``
entries the second-layer block.  The product is the exact step-2 formula

    p * q = p + q + 0.5 * [p, q]

where the bracket only sees the first-layer blocks and lands in the second
layer.  With this convention inversion is coordinate negation and all group
identities hold up to floating-point rounding only.

All operations are pure and broadcast over leading axes, so arrays of points
of shape ``(..., n)`` are accepted everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConformanceError, UnsupportedModelError

Point = np.ndarray  # shape (..., n), blockwise per layer


@dataclass(frozen=True, eq=False)
class GroupModel:
    """A stratified group of step <= 2.

    layer_dims : per-layer dimensions (m1,) or (m1, m2)
    bracket    : antisymmetric table C with [e_i, e_j] = sum_k C[i,j,k] f_k,
                 shape (m1, m1, m2); None for abelian models
    dilation_weights : the layer of each coordinate (1.0 or 2.0), the
                 exponents of the dilations; derived once, read-only
    bracket_pairs : the (i, j, C[i, j]) with C[i, j] nonzero, in row-major
                 order; derived once (empty for abelian models)
    """

    layer_dims: tuple
    bracket: np.ndarray | None = None
    name: str = ""
    dilation_weights: np.ndarray = field(init=False, repr=False)
    bracket_pairs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) == 0 or any(d <= 0 for d in dims):
            raise ConformanceError("layer dimensions must be positive: %r" % (dims,))
        if len(dims) > 2:
            raise UnsupportedModelError(
                "exact arithmetic supports step <= 2 only, got %d layers" % len(dims)
            )
        if len(dims) == 2:
            if self.bracket is None:
                raise ConformanceError("a step-2 model needs a bracket table")
            table = np.asarray(self.bracket, dtype=float)
            if table.shape != (dims[0], dims[0], dims[1]):
                raise ConformanceError(
                    "bracket table shape %r does not match layer dims %r"
                    % (table.shape, dims)
                )
            if not np.array_equal(table, -np.swapaxes(table, 0, 1)):
                raise ConformanceError("bracket table must be antisymmetric")
            table.setflags(write=False)
            object.__setattr__(self, "bracket", table)
            nonzero = np.nonzero(np.any(table != 0.0, axis=2))
            pairs = tuple((int(i), int(j), table[i, j]) for i, j in zip(*nonzero))
        elif self.bracket is not None:
            raise ConformanceError("abelian model cannot carry a bracket table")
        else:
            pairs = ()
        object.__setattr__(self, "bracket_pairs", pairs)
        weights = np.concatenate([np.ones(self.m1), 2.0 * np.ones(self.m2)])
        weights.setflags(write=False)
        object.__setattr__(self, "dilation_weights", weights)

    # --- basic shape data -------------------------------------------------

    @property
    def step(self) -> int:
        return len(self.layer_dims)

    @property
    def m1(self) -> int:
        return self.layer_dims[0]

    @property
    def m2(self) -> int:
        return self.layer_dims[1] if self.step == 2 else 0

    @property
    def n(self) -> int:
        return self.m1 + self.m2

    @property
    def Q(self) -> int:
        """Homogeneous dimension sum_i i * dim V_i."""
        return self.m1 + 2 * self.m2

    def ad_norm(self, v) -> float:
        """Operator 2-norm of a -> [a, v] on the first layer, so that
        |[a, v]| <= ad_norm(v) |a| for every first-layer vector a.

        The map's matrix is (m2, m1); its norm is the largest singular value
        (1 for a unit v on every Heisenberg group H^n).
        """
        if self.step == 1:
            return 0.0
        ad = np.einsum("ijk,j->ki", self.bracket, np.asarray(v, dtype=float))
        return float(np.linalg.norm(ad, 2))

    def identity(self) -> Point:
        return np.zeros(self.n)

    def conform(self, p: Point) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (self.n,):
            raise ConformanceError(
                "point of shape %r does not conform to model of dimension %d"
                % (p.shape, self.n)
            )
        return p

    def v1(self, p: Point) -> np.ndarray:
        return p[..., : self.m1]

    def v2(self, p: Point) -> np.ndarray:
        return p[..., self.m1 :]

    # --- group operations ---------------------------------------------------

    def bracket_v1(self, a, b) -> np.ndarray:
        """[a, b] for first-layer coefficient vectors a, b; lands in V2."""
        a = np.asarray(a)
        b = np.asarray(b)
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1] + (self.m2,))
        # the sum of a_i b_j C[i,j] over the nonzero rows of the table, in
        # the order einsum("...i,...j,ijk->...k") accumulates it
        for i, j, c in self.bracket_pairs:
            out += (a[..., i] * b[..., j])[..., None] * c
        return out

    def multiply(self, p: Point, q: Point) -> Point:
        """Group product p * q = p + q + 0.5 [p, q]."""
        if self.step > 2:
            raise UnsupportedModelError("group law implemented for step <= 2 only")
        p = self.conform(p)
        q = self.conform(q)
        out = p + q
        if self.m2:
            out[..., self.m1 :] += 0.5 * self.bracket_v1(self.v1(p), self.v1(q))
        return out

    def inverse(self, p: Point) -> Point:
        """Group inverse; exact coordinate negation in these coordinates."""
        return -self.conform(p)

    def dilate(self, r, p: Point) -> Point:
        """Anisotropic dilation: layer-i block scaled by r**i.  Requires r > 0."""
        p = self.conform(p)
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("dilation factor must be positive")
        return p * r[..., None] ** self.dilation_weights

    def split(self, nu: np.ndarray, p: Point):
        """Split p = (t*nu) * n with n in the vertical subgroup N(nu).

        Returns (t, n).  For step-2 groups t is exactly the linear projection
        <p_1, nu> and n = (-t*nu) * p.
        """
        p = self.conform(p)
        nu = direction(self, nu)
        t = np.einsum("...i,i->...", self.v1(p), nu)
        n1 = self.v1(p) - t[..., None] * nu
        if self.m2:
            n2 = self.v2(p) - 0.5 * t[..., None] * self.bracket_v1(nu, self.v1(p))
            n = np.concatenate([n1, n2], axis=-1)
        else:
            n = n1
        return t, n


def direction(model: GroupModel, v) -> np.ndarray:
    """Validate and return a unit horizontal direction (vector in V1)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (model.m1,):
        raise ConformanceError(
            "direction of shape %r does not fit V1 of dimension %d" % (v.shape, model.m1)
        )
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ConformanceError("direction must be nonzero")
    v = v / norm
    return v


def embed_v1(model: GroupModel, h) -> Point:
    """Embed a first-layer coefficient vector as a group element."""
    h = np.asarray(h, dtype=float)
    out = np.zeros(h.shape[:-1] + (model.n,))
    out[..., : model.m1] = h
    return out


def vertical_complement(model: GroupModel, nu) -> np.ndarray:
    """An orthonormal basis of nu-perp inside V1, rows as vectors.

    Deterministic completion: take the identity columns and Gram-Schmidt
    against nu, dropping the most nu-aligned axis.
    """
    nu = direction(model, nu)
    m = model.m1
    drop = int(np.argmax(np.abs(nu)))
    basis = [nu]
    for j in range(m):
        if j == drop:
            continue
        e = np.zeros(m)
        e[j] = 1.0
        for b in basis:
            e = e - np.dot(e, b) * b
        norm = np.linalg.norm(e)
        e = e / norm
        basis.append(e)
    return np.array(basis[1:])


def frame_points(frame, coord_rows, offset, out):
    """First-layer points offset + sum_j coord_rows[j] * frame[j], written
    into out as (m1, k) rows; returns out.

    The sum is (off + p_0) + p_1 + ... in index order, with off = offset +
    0.0 and p_j the broadcast product of frame row j: no BLAS call, and the
    same bits in every layout and for every first-layer width.  Adding 0.0
    turns a -0.0 offset into +0.0, so no coordinate of a point is -0.0.
    """
    off = (offset + 0.0)[:, None]
    if not len(frame):  # a first layer of dimension 1 has no kernel directions
        out[...] = off
        return out
    np.multiply(frame[0][:, None], coord_rows[0], out=out)  # no temporary on H^1
    out += off  # p_0 + off rounds as off + p_0
    for j in range(1, len(frame)):  # one product alive at a time
        out += frame[j][:, None] * coord_rows[j]
    return out


# --- the chart of a vertical hyperplane -------------------------------------
#
# N(nu) = nu-perp + V2 has chart coordinates (m1-1 + m2 of them): first the
# coefficients on a frame of nu-perp (rows of vertical_complement), then the
# vertical block as it is.  Slices sample its translates t nu + N(nu), and
# blow-ups parametrise a surface as a graph over N(nu0).


def plane_points(model: GroupModel, frame, coords, offset) -> Point:
    """The points offset + (sum_j coords[:, j] frame[j], coords[:, m1-1:])
    of the plane, for (k, m1-1 + m2) chart coordinates and a first-layer
    offset (t nu for a slice, zeros for N itself).

    The points come back column-major, as the .T view of an (n, k) array,
    so every coordinate is one contiguous run; the first layer is
    frame_points (index order, no -0.0) and the vertical rows are copied.
    """
    cols = coords.T
    pts = np.empty((model.n, len(coords)))
    frame_points(frame, cols, offset, pts[: model.m1])
    pts[model.m1 :] = cols[model.m1 - 1 :]
    return pts.T


def plane_blocks(model: GroupModel, horizontal, vertical) -> np.ndarray:
    """The (m1-1 + m2,) chart vector holding horizontal in every nu-perp
    coordinate and vertical in every V2 one (which an abelian model lacks)."""
    out = np.empty(model.n - 1)
    out[: model.m1 - 1] = horizontal
    out[model.m1 - 1 :] = vertical
    return out


# --- model catalog and parsing ---------------------------------------------


def heisenberg(n: int) -> GroupModel:
    """The Heisenberg group H^n: layers (2n, 1), [e_{2i-1}, e_{2i}] = e_{2n+1}."""
    if n < 1:
        raise ConformanceError("heisenberg index must be >= 1")
    m1 = 2 * n
    table = np.zeros((m1, m1, 1))
    for i in range(n):
        table[2 * i, 2 * i + 1, 0] = 1.0
        table[2 * i + 1, 2 * i, 0] = -1.0
    return GroupModel((m1, 1), table, name="heisenberg:%d" % n)


def abelian(m: int) -> GroupModel:
    """The abelian group R^m (single layer, ordinary addition)."""
    if m < 1:
        raise ConformanceError("abelian dimension must be >= 1")
    return GroupModel((m,), None, name="abelian:%d" % m)


def from_text(path: str) -> GroupModel:
    """Load a model from a key-value text file.

    Format (lines, '#' comments allowed)::

        layers: 2 1
        bracket: 1 2 1 1.0    # [e_i, e_j] = c * f_k, 1-based indices

    Bracket entries may list either orientation; both orientations of the
    same pair must be consistent with antisymmetry.
    """
    layers = None
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise ConformanceError("malformed line in group file: %r" % raw)
            key, rest = line.split(":", 1)
            key = key.strip().lower()
            parts = rest.split()
            if key == "layers":
                layers = tuple(int(x) for x in parts)
            elif key == "bracket":
                if len(parts) != 4:
                    raise ConformanceError("bracket entries need i j k coeff: %r" % raw)
                entries.append((int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                raise ConformanceError("unknown key %r in group file" % key)
    if layers is None:
        raise ConformanceError("group file is missing a 'layers' line")
    if len(layers) == 1:
        if entries:
            raise ConformanceError("abelian model cannot carry bracket entries")
        return GroupModel(layers, None, name=path)
    m1, m2 = layers[0], layers[1]
    table = np.zeros((m1, m1, m2))
    seen = {}
    for i, j, k, c in entries:
        if not (1 <= i <= m1 and 1 <= j <= m1 and 1 <= k <= m2):
            raise ConformanceError("bracket indices out of range: %r" % ((i, j, k),))
        if i == j and c != 0.0:
            raise ConformanceError("diagonal bracket entry must vanish: %r" % ((i, j, k),))
        if (i, j, k) in seen and seen[(i, j, k)] != c:
            raise ConformanceError("conflicting duplicate bracket entry %r" % ((i, j, k),))
        if (j, i, k) in seen and seen[(j, i, k)] != -c:
            raise ConformanceError("bracket entries violate antisymmetry at %r" % ((i, j, k),))
        seen[(i, j, k)] = c
        table[i - 1, j - 1, k - 1] = c
        table[j - 1, i - 1, k - 1] = -c
    return GroupModel(layers, table, name=path)


def parse_group(spec: str) -> GroupModel:
    """Parse a group spec string: 'heisenberg:n', 'abelian:m' or a file path."""
    spec = spec.strip()
    if spec.startswith("heisenberg:"):
        return heisenberg(int(spec.split(":", 1)[1]))
    if spec.startswith("abelian:"):
        return abelian(int(spec.split(":", 1)[1]))
    return from_text(spec)
