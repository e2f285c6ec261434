"""The paper's two theorems about the update rules, as exact checks.

Both are shared by the hypothesis law suites and acceptance criterion 7.

- Pearl's rule *improves*: the evidence becomes more valid through the
  channel, ``validity(c >> σ_P, q) >= validity(c >> σ, q)`` with
  ``σ_P = pearl_update(σ, c, q)``.
- Jeffrey's rule *corrects*: the prediction moves towards the evidence,
  ``KL(ρ ‖ c >> σ_J) <= KL(ρ ‖ c >> σ)`` with
  ``σ_J = jeffrey_update(σ, c, ρ)``.

A KL divergence is not rational, but two divergences from the same ``ρ``
compare exactly in integers (``divergence_at_most``), so neither check
takes a log or a float.  The comparison lives here, outside the kernel.
"""

from math import lcm, prod

from softbayes import jeffrey_update, pearl_update, state_transform, validity


def divergence_at_most(rho, tau, other) -> bool:
    """Whether ``KL(rho ‖ tau) <= KL(rho ‖ other)``, decided exactly.

    Write ``rho(y) = n_y / D``.  Then
    ``KL(rho ‖ tau) = Σ rho(y) log rho(y) − (1/D) log Π tau(y)^n_y``, so
    the inequality holds exactly when
    ``Π other(y)^n_y <= Π tau(y)^n_y`` over the ``y`` with ``n_y > 0``.
    The divergence is infinite where ``tau(y) = 0`` and ``n_y > 0``.
    """
    weights = rho.weights
    den = lcm(*(w.denominator for w in weights.values()))
    powers = [
        (y, w.numerator * (den // w.denominator)) for y, w in weights.items() if w
    ]
    if any(other.weights[y] == 0 for y, _ in powers):
        return True  # KL(rho ‖ other) is infinite
    if any(tau.weights[y] == 0 for y, _ in powers):
        return False  # only KL(rho ‖ tau) is infinite

    def power_product(state) -> tuple[int, int]:
        values = [(state.weights[y], n) for y, n in powers]
        return (
            prod(v.numerator ** n for v, n in values),
            prod(v.denominator ** n for v, n in values),
        )

    tau_num, tau_den = power_product(tau)
    other_num, other_den = power_product(other)
    return other_num * tau_den <= tau_num * other_den


def pearl_improves(sigma, c, q) -> bool:
    """``validity(c >> pearl_update(σ, c, q), q) >= validity(c >> σ, q)``."""
    posterior = pearl_update(sigma, c, q)
    return validity(state_transform(c, posterior), q) >= validity(
        state_transform(c, sigma), q
    )


def jeffrey_corrects(sigma, c, rho, relaxed: bool = False) -> bool:
    """``KL(ρ ‖ c >> jeffrey_update(σ, c, ρ)) <= KL(ρ ‖ c >> σ)``."""
    posterior = jeffrey_update(sigma, c, rho, relaxed=relaxed)
    return divergence_at_most(
        rho, state_transform(c, posterior), state_transform(c, sigma)
    )
