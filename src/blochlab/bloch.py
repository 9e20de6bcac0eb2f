"""Shifted-gradient operators on the periodic cell and their first eigenvalues.

The quadratic form is the face sum ``sum_f w a_f |D^eta u|_f^2`` where the
shifted difference along axis ``k`` carries a link phase,

    (D^eta u)_f = (exp(i eta_k h_k) u_{c+e_k} - u_c) / h_k,

``a_f`` is the harmonic mean of the two adjacent cell values and ``w`` the
cell volume.  This keeps the operator Hermitian for every momentum, makes
``eta -> eta + m`` (integer ``m``) an exact diagonal-unitary gauge, and for a
constant medium reproduces the discrete symbol
``sum_k 4 sin^2(eta_k h_k / 2) / h_k^2`` exactly.

Assembly and every cell problem share one face stencil, defined here: the
face coefficient ``a_f``, the difference ``D_k``, their adjoint scatters and
the face form's Gram matrix, the one place a vector's stiffness energy is
formed.  Every pencil, the zero-momentum stiffness of the cell problems
included, comes from :func:`shifted_pencil` with the inverse its solves use.

Eigenvalues are reported for the pencil ``B(eta) x = lam M x`` with
``M = w I``, i.e. in mean-per-volume normalization: for ``a = I`` the first
eigenvalue tends to ``|eta|^2``.  The mass is carried as the scalar ``w``
from assembly to the eigensolver; every pencil is ``(B, w, inverse)``.

One reduction serves both reduced solves: the unit pattern's pencil
``eps^-2 B(eps eta) + shift diag(w a)``, whose reports, residual included,
are in the eps-periodic problem's units.  No entry point takes a tolerance.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .grid import PeriodicGrid, _require_first_zone, check_eps
from .microstructure import CoefficientField
from .sparse_linalg import EigSolveReport, Preconditioner, smallest_eigpair

if TYPE_CHECKING:
    import scipy.sparse as sp


def canonical_momentum(eta: np.ndarray) -> np.ndarray:
    """Fold a momentum into the fundamental zone (-1/2, 1/2]^d.

    Integer shifts are exact gauges of the discrete operator, so folding
    never changes an eigenvalue; it only shrinks the link phases.  Solvers
    never fold on their own — callers opt in through this function.
    """
    eta = np.asarray(eta, dtype=np.float64)
    return eta - np.ceil(eta - 0.5)


def face_arrays(field: CoefficientField, axis: int) -> np.ndarray:
    """Harmonic-mean face coefficients along ``axis``.  Face ``c`` sits
    between cell ``c`` and its forward neighbor ``c + e_axis``; on a 2-cell
    axis the two distinct faces of a cell share both endpoints.
    """
    a = field.a
    a_next = field.grid.neighbor_values(a, axis)
    # 2 a a_next / (a + a_next), in two buffers
    a_f = 2.0 * a
    a_f *= a_next
    a_next += a
    a_f /= a_next
    return a_f


def face_difference(u: np.ndarray, grid: PeriodicGrid, axis: int) -> np.ndarray:
    """Plain forward difference ``D_k u = (u_{c+e_k} - u_c) / h_k`` per face,
    in one fresh buffer with no rolled copy of ``u``.  Trailing dimensions
    of ``u`` (columns) ride along.

    The flat array less itself shifted by one step along the axis gives
    every face but the last of each line, which wraps to the first cell;
    a second, smaller subtraction writes those.  The first one reads
    contiguous runs: a subtraction of 2-D slices along the last axis would
    have numpy allocate its own buffers, three 64 KiB for real data.
    """
    v = u.reshape(grid.n + u.shape[1:])
    step = math.prod(v.shape[axis + 1:])
    d = np.empty(v.shape, dtype=u.dtype)
    flat_u, flat_d = v.reshape(-1), d.reshape(-1)
    np.subtract(flat_u[step:], flat_u[:-step], out=flat_d[:-step])
    first = (slice(None),) * axis + (slice(0, 1),)
    last = (slice(None),) * axis + (slice(-1, None),)
    np.subtract(v[first], v[last], out=d[last])
    d /= grid.h[axis]
    return d.reshape(u.shape)


def scatter_difference(b: np.ndarray, x: np.ndarray, grid: PeriodicGrid, axis: int):
    """Adjoint of the difference, in place: face value ``x_c`` enters cell
    ``c`` with ``+`` and cell ``c + e_axis`` with ``-``."""
    b += x
    b -= grid.neighbor_values(x, axis, -1)


def scatter_sum(b: np.ndarray, x: np.ndarray, grid: PeriodicGrid, axis: int):
    """Adjoint of twice the face average, in place: face value ``x_c``
    enters both cells ``c`` and ``c + e_axis`` with ``+``."""
    b += x
    b += grid.neighbor_values(x, axis, -1)


def face_gram(field: CoefficientField, basis: list[np.ndarray]) -> np.ndarray:
    """The stiffness energy of real vectors as the face sum, the Gram
    matrix ``G[i, j] = sum_k sum_f w a_f (D_k v_i)_f (D_k v_j)_f`` of the
    zero-momentum ``K`` of :func:`assemble_shifted`.

    ``v^T (K v)`` cancels, row by row, terms as large as the largest face
    coefficient; every term of a diagonal entry here is nonnegative, so a
    vector's energy keeps its relative accuracy at any contrast.  Each
    entry is accumulated from 0.0 over the axes, one
    ``np.sum((w a_f) * d_i * d_j)`` each, and ``G`` is exactly symmetric.
    """
    grid = field.grid
    n = len(basis)
    G = np.zeros((n, n))
    for k in range(grid.d):
        wa = grid.cell_volume * face_arrays(field, k)
        scaled = []  # w a_f D_k v_i of the vectors before v_j
        for j, v in enumerate(basis):
            d = face_difference(v, grid, k)
            # nothing reads wa or a scaled difference after the last
            # vector, so its products overwrite them
            last = j == n - 1
            for i, t in enumerate(scaled):
                G[i, j] += np.sum(np.multiply(t, d, out=t if last else None))
            t = np.multiply(wa, d, out=wa if last else None)
            G[j, j] += np.sum(np.multiply(d, t, out=d))
            scaled.append(t)
        del wa, scaled, d, t  # release before the next axis allocates
    return np.triu(G) + np.triu(G, 1).T


def assemble_shifted(
    field: CoefficientField, eta: np.ndarray | None = None
) -> tuple[sp.csr_matrix, float]:
    """Assemble ``(B(eta), w)`` for the shifted form on ``field.grid``, ``w``
    the cell volume: the mass is ``M = w I``.

    Returns a real matrix when ``eta`` is ``None`` or zero (the plain
    stiffness with constant kernel), complex otherwise.  The CSR arrays are
    written directly, one fixed-width row per cell: the diagonal, then the
    forward and backward neighbor along each axis, with the two faces of a
    2-cell axis summed into one entry; each row is then sorted by column.
    """
    # the package's one sparse constructor: scipy loads at an unpooled run's
    # first assembly (a pool's parent loads it before forking, see
    # experiments.map_tasks), so config parsing and capacity never import it
    import scipy.sparse as sp

    grid = field.grid
    d, h, w, N = grid.d, grid.h, grid.cell_volume, grid.num_cells
    eta_arr = np.zeros(d) if eta is None else np.asarray(eta, dtype=np.float64)
    if eta_arr.shape != (d,):
        raise ValueError(f"momentum must have shape ({d},), got {eta_arr.shape}")
    is_complex = bool(np.any(eta_arr != 0.0))

    width = 1 + sum(1 if nk == 2 else 2 for nk in grid.n)
    # int32 indices and indptr: make_grid admits no grid with N * (2d + 1)
    # entries past their range
    indices = np.empty((N, width), dtype=np.int32)
    data = np.empty((N, width), dtype=np.complex128 if is_complex else np.float64)
    indices[:, 0] = np.arange(N)
    diag = np.zeros(N)
    slot = 1
    for k in range(d):
        two_cell = grid.n[k] == 2  # both faces of a cell join one neighbor
        indices[:, slot] = grid.neighbor(k)
        if not two_cell:
            indices[:, slot + 1] = grid.neighbor(k, -1)
        coeff = w * face_arrays(field, k) / h[k] ** 2
        scatter_sum(diag, coeff, grid, k)
        # entry (c, c + e_k); row c also holds the Hermitian partner of the
        # entry (c - e_k, c)
        off = np.negative(coeff, out=coeff)
        if is_complex:
            off = off * np.exp(1j * eta_arr[k] * h[k])
        del coeff
        back = grid.neighbor_values(off, k, -1)
        np.conj(back, out=back)
        if two_cell:
            np.add(off, back, out=data[:, slot])
            slot += 1
        else:
            data[:, slot] = off
            data[:, slot + 1] = back
            slot += 2
        del off, back  # release before the next axis allocates
    data[:, 0] = diag
    indptr = np.arange(0, N * width + 1, width, dtype=np.int32)
    B = sp.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(N, N))
    B.sort_indices()
    return B, w


def _fft_bound(inv_sigma: np.ndarray, shape: tuple[int, ...], real: bool) -> Preconditioner:
    """The Fourier multiplier ``r -> ifftn(fftn(r) * inv_sigma)`` over the
    axes of a grid of ``shape``, for a vector of length ``N`` or an
    ``(N, cols)`` block.  A complex pencil's ``inv_sigma`` is the full
    spectrum; a ``real`` pencil's is :func:`numpy.fft.rfftn`'s half, of
    shape ``shape[:-1] + (shape[-1] // 2 + 1,)``, and takes real data only.

    Each apply allocates one spectrum buffer: the forward transform writes
    into it and every later pass runs in place, the inverse half-spectrum
    passes in :func:`numpy.fft.irfftn`'s own order.  The last pass writes
    into ``out`` when one is given, a contiguous array of the result's
    shape and dtype that may be ``r`` itself (the forward transform has
    read ``r`` by then); otherwise the half spectrum allocates the result.
    Each pass is the one numpy's out-of-place forms run, so the result is
    bit-identical to them.
    """
    d = len(shape)
    axes = tuple(range(d))
    forward = np.fft.rfftn if real else np.fft.fftn

    def bound(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        v = r.reshape(shape + r.shape[1:])
        z = np.empty(inv_sigma.shape + r.shape[1:], dtype=np.complex128)
        forward(v, axes=axes, out=z)
        z *= inv_sigma.reshape(inv_sigma.shape + (1,) * (r.ndim - 1))
        out = None if out is None else out.reshape(v.shape)
        if real:
            for k in axes[:-1]:
                np.fft.ifft(z, axis=k, out=z)
            z = np.fft.irfft(z, n=shape[-1], axis=d - 1, out=out)
        else:
            z = np.fft.ifftn(z, axes=axes, out=z if out is None else out)
        return z.reshape(r.shape)

    return bound


def shifted_pencil(
    field: CoefficientField,
    eta: np.ndarray | None = None,
    *,
    scale: float = 1.0,
    shift: float = 0.0,
) -> tuple[sp.csr_matrix, float, Preconditioner]:
    """``(B, w, inverse)``: the pencil ``B x = lam w x`` of every library
    solve, with the inverse its solves use, where
    ``B = scale * B(eta) + shift * diag(w a)`` for the stencil of
    :func:`assemble_shifted` and ``w`` is the cell volume.

    The inverse starts from the bound ``P^{-1}``.  ``P`` is the same pencil
    with every face coefficient and every ``a`` on the diagonal replaced by
    ``a_ref``, the smallest cell value.  A harmonic face mean is never
    below the cell minimum, so ``P <= B`` in the Loewner order: the
    solvers' error estimate ``r^H P^{-1} r`` then bounds the
    ``B^{-1}``-norm of the residual.  The constant-coefficient stencil is
    diagonalized by the DFT, with symbol

        sigma(xi) = w sum_k a_ref 4 sin^2((eta_k h_k + xi_k) / 2) / h_k^2
                    * scale + shift * w * a_ref,   xi_k = 2 pi fftfreq(n_k),

    so ``P^{-1} r = ifftn(fftn(r) / sigma)``, on the half spectrum for a
    real ``B``, which takes real data only.  Modes where ``sigma`` vanishes
    (the constants at zero momentum and zero shift) are projected out.

    At zero momentum and zero shift ``B`` is the periodic stiffness ``K``
    of the cell problems.  It differs from ``P`` only on the ``F`` faces
    ``f = (i -> j)`` along axis ``k`` whose coefficient exceeds ``a_ref``
    (by more than rounding): ``K = P + U D U^T`` with columns
    ``u_f = e_j - e_i`` and ``d_f = scale * w (a_f - a_ref) / h_k^2``.
    When ``F^2 <= N``, so that the capacitance matrix is no larger than one
    grid vector, the inverse is the capacitance-matrix form of ``K^+`` on
    mean-zero vectors (Buzbee, Dorr, George & Golub 1971; Proskurowski &
    Widlund 1976),

        K^+ = P^+ - P^+ U C^{-1} U^T P^+,   C = D^{-1} + U^T P^+ U,

    at two applies of ``P^+`` each, the second writing its result over
    its own input.  ``P^+`` is a periodic convolution, so
    ``C`` is read off its Green's function ``P^+ e_0`` at the differences
    of the ``2F`` face endpoints.  Every other pencil gets the plain bound.
    Either way ``P <= B``, with equality for the corrected inverse, and the
    inverse accepts a vector of length ``N`` or an ``(N, cols)`` block.
    """
    B, w = assemble_shifted(field, eta)
    grid = field.grid
    d, h, N, shape = grid.d, grid.h, grid.num_cells, grid.n
    # in place: no second CSR copy lives through the solve, and every entry
    # rounds as in ``B(eta) * scale + diags(shift)``
    if scale != 1.0:
        B.data *= scale
    if shift != 0.0:
        B.setdiag(B.diagonal() + shift * w * field.a)

    # the one real/complex decision: B is real exactly at zero momentum, where
    # sigma is even in xi, so the half spectrum holds every value and the max
    real = not np.iscomplexobj(B.data)
    spectrum = shape[:-1] + (shape[-1] // 2 + 1,) if real else shape
    theta = (np.zeros(d) if eta is None else np.asarray(eta, dtype=np.float64)) * np.asarray(h)
    a_ref = float(field.a.min())
    sigma = np.full(spectrum, shift * w * a_ref)
    for k in range(d):
        # fftfreq, not rfftfreq: the last axis keeps its negative Nyquist
        xi = 2.0 * np.pi * np.fft.fftfreq(grid.n[k])[: spectrum[k]]
        sym = w * a_ref * scale * 4.0 * np.sin((theta[k] + xi) / 2.0) ** 2 / h[k] ** 2
        sigma += sym.reshape([-1 if j == k else 1 for j in range(d)])
    kernel = sigma <= 1e-28 * sigma.max()  # rounding-level symbol: exact zero mode
    sigma[kernel] = np.inf  # 1 / inf = 0: the kernel is projected out
    bound = _fft_bound(np.divide(1.0, sigma, out=sigma), shape, real)

    if not real or shift != 0.0:
        return B, w, bound
    faces, d_f = [], []
    for k in range(d):
        a_f = face_arrays(field, k)
        faces.append(np.flatnonzero(a_f > a_ref * (1.0 + 1e-12)))
        d_f.append(scale * w * (a_f[faces[k]] - a_ref) / h[k] ** 2)
    d_f = np.concatenate(d_f)
    F = d_f.size
    if F == 0 or F * F > N:
        return B, w, bound
    # grid coordinates of the 2F endpoints only, shape (d, F)
    tails, heads = [], []
    for k in range(d):
        tail = np.array(np.unravel_index(faces[k], shape))
        head = tail.copy()
        head[k] = (head[k] + 1) % shape[k]
        tails.append(tail)
        heads.append(head)
    tails = np.concatenate(tails, axis=1)
    heads = np.concatenate(heads, axis=1)

    e0 = np.zeros(N)
    e0[0] = 1.0
    green = bound(e0).reshape(shape)

    def gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # entry (f, g) = G(x_f - y_g), G read at the periodic difference
        return green[tuple((x[k][:, None] - y[k]) % shape[k] for k in range(d))]

    C = gram(heads, heads) - gram(heads, tails) - gram(tails, heads) + gram(tails, tails)
    del green
    C[np.diag_indices(F)] += 1.0 / d_f
    # through the Cholesky factor: an explicit inverse of C loses four to
    # five digits more at fiber contrast
    L_inv = np.linalg.inv(np.linalg.cholesky(C))
    tails = np.ravel_multi_index(tuple(tails), shape)
    heads = np.ravel_multi_index(tuple(heads), shape)

    def corrected(r: np.ndarray) -> np.ndarray:
        # K^+ r = P^+ (r - U s): the buffer of P^+ r takes r - U s, then
        # the second apply's result
        z = bound(r)
        s = L_inv.T @ (L_inv @ (z[heads] - z[tails]))
        z[...] = r
        np.subtract.at(z, heads, s)
        np.add.at(z, tails, s)
        return bound(z, out=z)

    return B, w, corrected


def bloch_lambda1(field: CoefficientField, eta: np.ndarray) -> EigSolveReport:
    """Lowest eigenpair at momentum ``eta``, solved to ``tol = 1e-10``.

    The eigenvector is the periodic part ``phi`` (the physical mode is
    ``exp(i x . eta) phi``), normalized so the discrete integral of
    ``|phi|^2`` over the cell is one: ``w sum |phi|^2 = 1``.
    """
    B, w, bound = shifted_pencil(field, eta)
    return smallest_eigpair(B, w, tol=1e-10, precond=bound)


def _reduced_lambda1(
    unit_field: CoefficientField, eps: float, eta: np.ndarray, shift: float, tol: float
) -> EigSolveReport:
    """The one reduction: the lowest pair of the unit-pattern pencil
    ``eps^{-2} B(eps eta) + shift diag(w a)``, in the units of the
    eps-periodic problem, its residual included."""
    if unit_field.inv_eps != 1:
        raise ValueError("reduced solves expect a unit-pattern field (inv_eps == 1)")
    eps = check_eps(eps)
    B, w, bound = shifted_pencil(unit_field, eps * eta, scale=1.0 / eps**2, shift=shift)
    return smallest_eigpair(B, w, tol=tol, precond=bound)


def bloch_reduced(
    unit_field: CoefficientField,
    eps: float,
    eta: np.ndarray,
) -> EigSolveReport:
    """Lowest eigenpair of the oscillating problem via the unit-pattern cell.

    For a coefficient ``a(x / eps)`` the spectrum satisfies
    ``lam_eps(eta) = eps^{-2} lam_unit(eps eta)``, so one solve on the unit
    pattern replaces the full fine-grid solve.  On matched grids (unit grid
    of ``m`` cells per axis versus full grid of ``m / eps``) the two routes
    agree to rounding, not merely asymptotically: the link phases and
    dimensionless stencils coincide.  The unit pencil, scaled by
    ``eps^{-2}``, is solved at ``tol = 1e-11``: the report is in the
    eps-periodic problem's units, its vector on the unit grid.
    """
    eta = np.asarray(eta, dtype=np.float64)
    _require_first_zone(eta)
    return _reduced_lambda1(unit_field, eps, eta, 0.0, 1e-11)


def fiber_lambda1_2d(
    section_field: CoefficientField,
    eps: float,
    eta_prime: np.ndarray,
    eta3: float,
) -> EigSolveReport:
    """First eigenvalue for an axis-3 invariant medium via its cross-section.

    ``section_field`` is the 2-d unit-pattern cross-section of a coefficient
    that does not depend on the third coordinate.  On the subspace of
    axis-3 invariant functions the three-dimensional pencil collapses to

        eps^{-2} B_2d(eps eta') + eta3^2 diag(w a(y'))   vs   M = w I,

    the reduction of :func:`bloch_reduced` plus the axial term, with the
    third direction exact, not discretized, solved at ``tol = 1e-9``.
    """
    if section_field.grid.d != 2:
        raise ValueError("cross-section field must be 2-dimensional")
    eta_prime = np.asarray(eta_prime, dtype=np.float64)
    if eta_prime.shape != (2,):
        raise ValueError("eta_prime must have two components")
    _require_first_zone(np.array([eta_prime[0], eta_prime[1], float(eta3)]))
    return _reduced_lambda1(section_field, eps, eta_prime, float(eta3) ** 2, 1e-9)
