"""Corrections that map the ideal single-coupling model onto the apparatus.

Four effects are modeled, each switchable:

  * standing-wave averaging: atoms sit at random positions z along the
    resonator axis, so each sees a coupling eta(z) = eta_max cos^2(kz);
    detected quantities are intensity averages over a quarter period.
  * photon-number scaling: a control field with mean photon number n_c
    raises the effective antinode cooperativity to eta_eff_0 (n_c + 1).
  * a weak parallel transition, two-photon shifted by a Zeeman splitting,
    that adds its own susceptibility on top of the main channel.
  * resonator frequency jitter, modeled as a Gaussian spread of the
    cavity detuning and applied as a Gauss-Hermite quadrature.

Averaging and jitter together define the correction ensemble: one member
per coupling class x jitter offset, each with a weight, which
Corrections.members alone enumerates.  ensemble_transfer turns it into
susceptibilities in offset-major blocks (one jitter offset, a chunk of
classes), forming core's factors p and q = 1/(1 - i dc) once per offset
and calling core.susceptibility with them once per chunk and channel,
the side channel with its share of the od; corrected_spectrum and
recipes.pulse_ensemble consume those blocks, and corrected_spectrum
takes the fits' exact derivatives from them too.  The nodes are fixed
quadrature rules, the standing wave's sized to eta_max, so results never
depend on evaluation order, and core._mobius alone refuses a negative eta.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from vitlab.core import _factors, _mobius, susceptibility

SIGMA_PER_FWHM = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

# member x point elements evaluated at once by ensemble_transfer; larger
# blocks buy no speed and raise the peak memory of a wide ensemble
BLOCK_POINTS = 4096
# the standing wave's class cap and the jitter rule's nodes: at eta_max 1e3,
# 256 classes move fig2's spectra by < 2e-8, and 32 nodes by < 1e-5
MAX_CLASSES = 64
JITTER_NODES = 16
# what corrected_spectrum's derivatives may name: its arguments, od being cfg.od
DERIVATIVES = ("eta_max", "od", "delta_probe", "delta_cavity")


@lru_cache(maxsize=16)  # every 8-node rung up to 64, and the jitter rule
def _unit_rule(kind, nodes):
    """Read-only unit (nodes, weights), the weights summing to 1.

    kind "cos2": the Gauss-Legendre cos^2(kz) classes over a quarter
    period; "normal": the Gauss-Hermite abscissae.
    """
    if kind == "cos2":
        x, w = np.polynomial.legendre.leggauss(nodes)
        x = np.cos((x + 1.0) * (np.pi / 4.0)) ** 2
    else:
        x, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def effective_cooperativity(eta_eff_0, n_c):
    """Effective antinode cooperativity eta_eff_0 (n_c + 1); exactly linear in n_c."""
    if eta_eff_0 <= 0:
        raise ValueError("eta_eff_0 must be positive")
    if n_c < 0:
        raise ValueError("n_c must be nonnegative")
    return eta_eff_0 * (n_c + 1.0)


@dataclass(frozen=True)
class Corrections:
    """Which apparatus corrections to apply.

    average: average over the standing wave, in at most MAX_CLASSES
        coupling classes (averaging_nodes), which members sizes by eta_max.
    side_weight: Zeeman-shifted side channel's od over the main's, in [0, 1], 0 off.
    side_shift: the side channel's two-photon shift (rad/s).
    jitter_fwhm: FWHM of the resonator frequency jitter (rad/s), 0 off,
        taken in jitter_nodes Gauss-Hermite offsets.
    The three other fields are stored as floats once checked.
    """

    average: bool = False
    side_weight: float = 0.0
    side_shift: float = 0.0
    jitter_fwhm: float = 0.0
    jitter_nodes = JITTER_NODES  # constants read like fields, by members and sidecars
    averaging_nodes = property(lambda self: MAX_CLASSES if self.average else 0)

    def __post_init__(self):
        if not 0.0 <= self.side_weight <= 1.0:
            raise ValueError("side-channel weight must lie in [0, 1]")
        if not (abs(self.side_shift) < np.inf and 0.0 <= self.jitter_fwhm < np.inf):
            raise ValueError("side_shift must be finite, jitter_fwhm nonnegative and finite")
        for name in ("side_weight", "side_shift", "jitter_fwhm"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def classes(self, eta_max):
        """The coupling classes as (nodes, weights), the weights summing to 1.

        A class's cooperativity is eta_max times its node: the
        min(averaging_nodes, 8 ceil(1 + sqrt(eta_max))) Gauss-Legendre
        nodes of cos^2, or the one node 1 when averaging is off.
        """
        if not self.averaging_nodes:
            return np.ones(1), np.ones(1)
        # the pole eta cos^2 = -z, |z| >= 1, lies ~1/sqrt(eta) off the
        # interval and sets Gauss-Legendre's rate (Trefethen, SIAM Rev. 50
        # (2008) 67); max() leaves a negative eta_max, unwarned, to core
        rungs = np.ceil(1.0 + np.sqrt(max(eta_max, 0.0)))
        return _unit_rule("cos2", int(min(self.averaging_nodes, 8 * rungs)))

    def members(self, eta_max):
        """The correction ensemble as (etas, offsets, weights).

        One member per coupling class x jitter offset: the classes' etas
        (eta_max times the nodes of classes), the jitter_nodes offsets
        (one zero offset when jitter_fwhm is 0) in rad/s of cavity
        detuning, and weights[c, j] of member (etas[c], offsets[j]),
        summing to 1.  The only place nodes are made: cached unit rules,
        scaled here; core._mobius refuses a negative eta_max.
        """
        nodes, wz = self.classes(eta_max)
        offs, wj = np.zeros(1), np.ones(1)
        if self.jitter_fwhm:
            x, wj = _unit_rule("normal", self.jitter_nodes)
            offs = np.sqrt(2.0) * (self.jitter_fwhm * SIGMA_PER_FWHM) * x
        return eta_max * nodes, offs, np.outer(wz, wj)


IDEAL = Corrections()


def ensemble_transfer(cfg, eta_max, delta_probe, delta_cavity, corrections=IDEAL,
                      derivatives=()):
    """Susceptibilities of the ensemble members, in blocks.

    Offset-major: each block is one jitter offset and a chunk of coupling
    classes of about BLOCK_POINTS member x point elements (at least one
    class).  Yields (weights, etas, q, chi) per block: the block's member
    weights, its cooperativities as a (member, 1) column, the main
    channel's cavity factor q = 1/(1 - i dc) of core._factors as a
    (point,) row, and the members' susceptibility of shape (member,
    point), over the broadcast detunings flattened.  The side channel,
    its two-photon resonance displaced by side_shift, takes w/(1 + w) of
    the od (w = side_weight), so the total od is conserved and chi =
    chi_main + chi_side.  Members transmit exp(-k L Im chi) in intensity
    and core.transfer_amplitude(chi, cfg) in amplitude.  Only here are
    Corrections.members made susceptibilities.

    derivatives names DERIVATIVES; the block then carries, after chi, one
    (d g, d chi) per name, g = etas |q|^2, each point's derivative along
    its own detunings, as _derivatives forms them.
    """
    etas, offsets, weights = corrections.members(eta_max)
    dp, dcav = np.broadcast_arrays(np.asarray(delta_probe, dtype=float),
                                   np.asarray(delta_cavity, dtype=float))
    dp, dcav = dp.ravel(), dcav.ravel()
    main = cfg.od / (1.0 + corrections.side_weight)
    step = max(BLOCK_POINTS // max(dp.size, 1), 1)
    if derivatives:
        unknown = set(derivatives) - set(DERIVATIVES)
        if unknown:
            raise ValueError(f"no derivative along {sorted(unknown)}; choose from {DERIVATIVES}")
        # d etas/d eta_max: the unit nodes, not etas/eta_max, which is 0/0 at eta_max = 0
        nodes = corrections.classes(eta_max)[0][:, None]
    for j, offset in enumerate(offsets):
        dcav_j = dcav + offset
        p, q = _factors(cfg, dp, dcav_j)
        # each channel's od, its rate in cfg.od, and its q
        channels = [(main, 1.0 / (1.0 + corrections.side_weight), q)]
        if corrections.side_weight:
            dcav_side = dcav_j + corrections.side_shift
            side = p, _factors(cfg, dp, dcav_side)[1]
            channels.append((cfg.od - main, 1.0 - channels[0][1], side[1]))
        for lo in range(0, len(etas), step):
            column = etas[lo:lo + step, None]
            chi = susceptibility(cfg, column, dp, dcav_j, od=main, factors=(p, q))
            if corrections.side_weight:
                chi += susceptibility(cfg, column, dp, dcav_side, od=cfg.od - main, factors=side)
            block = weights[lo:lo + step, j], column, q, chi
            if derivatives:
                block += _derivatives(cfg, derivatives, column, nodes[lo:lo + step], p, channels)
            yield block


def _derivatives(cfg, names, etas, nodes, p, channels):
    """A block's (d g, d chi) per name, g = etas |q|^2 with the main channel's q.

    channels holds each channel's (od, d od/d cfg.od, q), the main
    channel's first.  With w = p + eta q and u = 1/w, a channel's chi =
    i c u (c = od/kL) has d chi/d w = -i c u^2; eta_max moves each
    class's eta by its node, dp/dDelta = -2i/gamma and dq/dDelta =
    -dq/ddelta = (2i/kappa) q^2, and od enters as i u/kL times its
    rate, never as chi/od, since od = 0 is legal.  g does not depend on
    od: its d g there is None.
    """
    dchi = []
    for od, rate, q in channels:
        u = _mobius(1.0, etas, p, q)
        dchi_dw = u * u
        dchi_dw *= -1j * od / cfg.kl
        dq = (2j / cfg.kappa) * (q * q)
        terms = []
        for name in names:
            if name == "eta_max":
                term = dchi_dw * q
                term *= nodes
            elif name == "od":
                term = (1j * rate / cfg.kl) * u
            elif name == "delta_probe":
                term = dchi_dw * (etas * dq - 2j / cfg.gamma)
            else:
                term = dchi_dw * (etas * -dq)
            terms.append(term)
        for total, term in zip(dchi, terms):
            total += term
        dchi = dchi or terms
    q = channels[0][2]
    q2 = q.real * q.real + q.imag * q.imag
    dq2 = (-4.0 / cfg.kappa) * q2 * q.imag  # d|q|^2/dDelta = 2 Re(conj(q) dq/dDelta)
    dg = [nodes * q2 if name == "eta_max" else None if name == "od" else
          etas * (dq2 if name == "delta_probe" else -dq2) for name in names]
    return tuple(zip(dg, dchi))


def corrected_spectrum(cfg, eta_max, delta_probe, delta_cavity, corrections=IDEAL,
                       derivatives=None):
    """Transmission and resonator-emission spectra with the full correction stack.

    Returns (transmission, emission), each the intensity-level average
    of the ensemble members (ensemble_transfer), with the shape of the
    broadcast detunings; the transmission is at most 1.  The emission is
    the medium's: the absorbed fraction times the branching ratio of the
    main two-photon channel, beta = g/(1 + g) = eta/(eta + 1 + dc^2) with
    g = eta |q|^2 <= eta (the closed form of the amplitude equations in
    vitlab.oracle); a detector's gain is its caller's to apply.  A
    negative cooperativity, a non-finite eta_max or detuning, or a
    Delta - delta beyond a double's range raises ValueError.

    derivatives, names from DERIVATIVES (od is cfg.od's), adds their
    exact derivatives: (transmission, emission, d_transmission,
    d_emission), each derivative of shape (len(derivatives),) + the
    spectra's, a detuning's taken at each point along its own.  The
    spectra are those of a call without derivatives, bit for bit.
    """
    for name, value in (("eta_max", eta_max), ("delta_probe", delta_probe),
                        ("delta_cavity", delta_cavity)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    shape = np.broadcast_shapes(np.shape(delta_probe), np.shape(delta_cavity))
    names = () if derivatives is None else tuple(derivatives)
    grads = np.zeros((2, len(names), int(np.prod(shape))))
    trans = emis = 0.0
    for weights, etas, q, chi, *blocks in ensemble_transfer(cfg, eta_max, delta_probe,
                                                            delta_cavity, corrections, names):
        # |exp(i k L chi / 2)|^2: the phase Re chi is never needed
        t2 = np.exp(-cfg.kl * chi.imag)
        q2 = q.real * q.real + q.imag * q.imag
        g = etas * q2
        lift = 1.0 + g
        absorbed, beta = 1.0 - t2, g / lift
        trans = trans + weights @ t2
        emis = emis + weights @ (absorbed * beta)
        if blocks:
            slope = -cfg.kl * t2  # dt2/d Im chi
            gain = absorbed / (lift * lift)  # d emission/dg at fixed t2
        # d emission = gain dg - beta dt2, each term summed over the block apart
        for k, (dg, dchi) in enumerate(blocks):
            dt2 = slope * dchi.imag
            grads[0, k] += weights @ dt2
            grads[1, k] -= weights @ (beta * dt2)
            if dg is not None:
                grads[1, k] += weights @ (gain * dg)
    # each lies in [0, 1] unless Delta - delta overflowed
    if not np.isfinite(trans + emis).all():
        raise ValueError("Delta - delta beyond a double's range gives a non-finite spectrum")
    # the weights sum to 1 only to rounding: a transparent medium may read 1 + 2e-16
    np.minimum(trans, 1.0, out=trans)
    spectra = trans.reshape(shape)[()], emis.reshape(shape)[()]
    if derivatives is None:
        return spectra
    return *spectra, *grads.reshape((2, len(names)) + shape)
