"""Walk through the equilibrium structure of the model.

Three parameter sets illustrate the three regimes: a decoupled set
where everything is solvable by hand, a generic coexistence set, and a
set whose infected population cannot sustain itself (no coexistence).
"""

from retrodyn import (
    ModelParams,
    all_equilibria,
    classify_equilibrium,
    inner_equilibrium,
    residual,
)

SETS = {
    "decoupled (hand-solvable)": ModelParams(
        a=1, a_I=2, b11=1, b12=0, b21=0, b22=1, alpha=0, m=1, k=1, sigma=2
    ),
    "generic coexistence": ModelParams(
        a=1, a_I=2, b11=1, b12=0.1, b21=0.1, b22=1, alpha=0.5, m=0.5, k=1, sigma=1
    ),
    "no coexistence (a_I < m, alpha = 0)": ModelParams(
        a=1, a_I=1, b11=1, b12=0, b21=0, b22=1, alpha=0, m=2, k=1, sigma=2
    ),
}


def main():
    for label, params in SETS.items():
        print("=" * 72)
        print(label)
        print("-" * 72)
        for eq in all_equilibria(params):
            print(
                "  %-16s C=%-12.6g I=%-12.6g V=%-12.6g residual=%.2e"
                % (eq.kind.value, eq.point.C, eq.point.I, eq.point.V, residual(params, eq.point))
            )
        eq = inner_equilibrium(params)
        if eq is None:
            print("  no coexistence equilibrium -> nothing to classify")
            continue
        rep = classify_equilibrium(params, eq)
        print(
            "  characteristic cubic: p=%.6g q=%.6g r=%.6g" % (rep.cubic.p, rep.cubic.q, rep.cubic.r)
        )
        print(
            "  verdict: %s   (margins p=%.3g, r=%.3g, pq-r=%.3g)"
            % (rep.verdict.value, rep.margins[0], rep.margins[1], rep.margins[2])
        )
    print("=" * 72)


if __name__ == "__main__":
    main()
