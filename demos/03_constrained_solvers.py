"""Three routes to the same constrained optimum.

The safety constraint asks every start state to reach the forbidden set
with probability at most p. The package solves that three ways: by
enumerating admissible pure policies, by a linear program over the
value candidates, and by walking the breakpoints of the Lagrangian dual
over one multiplier level. At p = 0.5 all three agree on the worked
example; at p = 0.3 the instance is infeasible and each route reports
that in its own way.
"""

import json

import numpy as np

import safemdp as sm

MODEL = {
    "states": ["a", "b", "c", "d", "e"],
    "actions": ["u1", "u2"],
    "partition": {"taboo": ["a", "b", "c"], "forbidden": ["d"], "target": ["e"]},
    "transitions": [
        {"from": "a", "action": "u1", "to": "d", "p": 0.4},
        {"from": "a", "action": "u1", "to": "e", "p": 0.6},
        {"from": "a", "action": "u2", "to": "d", "p": 0.9},
        {"from": "a", "action": "u2", "to": "e", "p": 0.1},
        {"from": "b", "action": "u1", "to": "a", "p": 0.3},
        {"from": "b", "action": "u1", "to": "c", "p": 0.7},
        {"from": "b", "action": "u2", "to": "a", "p": 0.8},
        {"from": "b", "action": "u2", "to": "c", "p": 0.2},
        {"from": "c", "action": "u1", "to": "a", "p": 1.0},
        {"from": "c", "action": "u2", "to": "a", "p": 1.0},
        {"from": "d", "action": "u1", "to": "d", "p": 1.0},
        {"from": "d", "action": "u2", "to": "d", "p": 1.0},
        {"from": "e", "action": "u1", "to": "e", "p": 1.0},
        {"from": "e", "action": "u2", "to": "e", "p": 1.0},
    ],
    "rewards": [
        {"state": "a", "action": "u1", "rho": 1},
        {"state": "a", "action": "u2", "rho": 1},
        {"state": "b", "action": "u1", "rho": 2},
        {"state": "b", "action": "u2", "rho": 2},
        {"state": "c", "action": "u1", "rho": 3},
        {"state": "c", "action": "u2", "rho": 3},
    ],
}


def name(model, assignment):
    return ", ".join(
        f"{s}: {model.actions[u]}" for s, u in zip(model.partition.taboo, assignment)
    )


def main():
    model = sm.load_model(json.dumps(MODEL))
    p = 0.5

    adm = sm.enumerate_admissible(model, p)
    print(f"admissible pure policies at p = {p} ({len(adm.value)} of {adm.total}):")
    for assignment, v, s in zip(adm.assignments, adm.value, adm.safety):
        print(
            f"  ({name(model, assignment)})  total value {v.sum():.4f},"
            f" max safety {s.max():.2f}"
        )

    problem = sm.build_lp(model, p)
    print("\nlinear program over value candidates:")
    print(problem.dump())
    lp = sm.solve_lp(problem)
    print(f"  optimum l = {np.round(lp.l, 6)}, multiplier level t = "
          f"{lp.level:.6g}, objective {lp.objective:.6g}")

    dual = sm.dual_ascent(model, p)
    print("\ndual ascent on the multiplier level:")
    print(f"  value {np.round(dual.value, 6)}, level {dual.info['level']:.6g},"
          f" inner solves {dual.info['outer_iterations']}"
          f" ({dual.info['exit']})")

    brute = sm.brute_force_constrained(model, p)
    vi = sm.constrained_vi_pure(model, p)
    print("\nagreement across routes:")
    print(f"  enumeration best:    {np.round(brute.value, 6)}")
    print(f"  constrained sweeps:  {np.round(vi.value, 6)}"
          f" (matches best member: {vi.info['sweep_matches_best_policy']})")
    print(f"  linear program:      {np.round(lp.value, 6)}")
    print(f"  dual ascent:         {np.round(dual.value, 6)}")
    print(f"  unconstrained floor: {np.round(sm.value_iteration(model).value, 6)}")
    print("  at p = 0.5 the constraint is loose, so the floor is attained")

    # Tighten the constraint beyond the safest achievable level.
    p_tight = 0.3
    s_star, _ = sm.safest_policy(model)
    print(f"\ntightening to p = {p_tight}; the safest achievable level is"
          f" {s_star.max():.2f}")
    try:
        sm.constrained_vi_pure(model, p_tight)
    except sm.InfeasibleError as exc:
        print(f"  enumeration route: {exc}")
    try:
        sm.solve_lp(sm.build_lp(model, p_tight))
    except sm.LpUnboundedError as exc:
        print(f"  linear program:    unbounded ({exc})")
    report = sm.dual_ascent(model, p_tight)
    print(f"  dual ascent:       feasible = {report.feasible},"
          f" floor reported = {np.round(report.info['min_safety'], 4)}")


if __name__ == "__main__":
    main()
