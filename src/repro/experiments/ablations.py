"""Ablation studies of APT's design choices (ours, beyond the paper).

Three knobs docs/architecture.md flags as load-bearing:

1. **Transfer term in the threshold test** — the paper defines p_alt over
   ``exec + transfer ≤ α·x``; dropping the transfer term (comparing exec
   alone) admits more alternatives on dependency-heavy Type-2 graphs.
2. **Queue discipline** — APT visits ready kernels first-come-first-serve;
   a longest-best-case-first variant prioritizes expensive kernels.
3. **Remaining-time check** — the future-work APT-RT variant
   (:class:`~repro.policies.apt_rt.APT_RT`) only diverts when the
   alternative actually finishes before the busy best processor would.

All studies run through the shared :class:`ExperimentRunner`, so they
inherit its result cache and worker pool.  The longest-first variant is
registered under ``"apt_longest_first"`` with this module as its
:class:`~repro.experiments.sweep.PolicySpec` provider, which is what lets
sweep worker processes reconstruct it.
"""

from __future__ import annotations

from repro.experiments.report import TableResult
from repro.experiments.runner import PAPER_ALPHAS, ExperimentRunner
from repro.experiments.sweep import PolicySpec
from repro.experiments.workloads import DEFAULT_SEED, paper_suite
from repro.graphs.dfg import DFG
from repro.policies.apt import APT
from repro.policies.registry import available_policies, register_policy


class APTLongestFirst(APT):
    """APT visiting ready kernels by descending best-case execution time.

    The intuition: placing long kernels first leaves short ones to fill
    whatever processors remain, reducing the damage of a bad alternative
    assignment.
    """

    name = "apt_longest_first"

    @staticmethod
    def order_key(kid: int, x: float) -> tuple[float, int]:
        return (-x, kid)


if "apt_longest_first" not in available_policies():  # idempotent on re-import
    register_policy("apt_longest_first", APTLongestFirst)

#: Provider module for specs whose policies live here, not in the registry
#: by default — worker processes import it before construction.
_PROVIDER = __name__


def _mean_makespan(
    suite: list[DFG], spec: PolicySpec, runner: ExperimentRunner, rate_gbps: float
) -> float:
    records = runner.run_specs(
        [(i, dfg, spec, rate_gbps) for i, dfg in enumerate(suite)]
    )
    return runner.mean([r.makespan for r in records])


def ablate_transfer_term(
    runner: ExperimentRunner | None = None,
    seed: int = DEFAULT_SEED,
    alphas: tuple[float, ...] = PAPER_ALPHAS,
    rate_gbps: float = 4.0,
) -> TableResult:
    """With vs without the transfer term in APT's threshold test."""
    runner = runner if runner is not None else ExperimentRunner()
    rows = []
    for dfg_type in (1, 2):
        suite = paper_suite(dfg_type, seed)
        for alpha in alphas:
            # note: no explicit include_transfer=True — defaulted params
            # would change the content hash and miss the cache entries the
            # paper tables already produced for the identical simulation.
            with_t = _mean_makespan(
                suite,
                PolicySpec.of("apt", alpha=alpha),
                runner,
                rate_gbps,
            )
            without_t = _mean_makespan(
                suite,
                PolicySpec.of("apt", alpha=alpha, include_transfer=False),
                runner,
                rate_gbps,
            )
            rows.append((f"Type-{dfg_type}", alpha, with_t, without_t,
                         (without_t - with_t) / with_t * 100.0))
    return TableResult(
        title="Ablation — transfer term in the APT threshold test",
        headers=("DFG", "alpha", "mean makespan (with)", "mean makespan (without)",
                 "delta %"),
        rows=tuple(rows),
        notes="Positive delta: dropping the transfer term hurts.",
    )


def ablate_queue_discipline(
    runner: ExperimentRunner | None = None,
    seed: int = DEFAULT_SEED,
    alpha: float = 4.0,
    rate_gbps: float = 4.0,
) -> TableResult:
    """FCFS (the paper) vs longest-best-case-first ready-queue order."""
    runner = runner if runner is not None else ExperimentRunner()
    rows = []
    for dfg_type in (1, 2):
        suite = paper_suite(dfg_type, seed)
        fcfs = _mean_makespan(
            suite, PolicySpec.of("apt", alpha=alpha), runner, rate_gbps
        )
        longest = _mean_makespan(
            suite,
            PolicySpec.of("apt_longest_first", alpha=alpha, provider=_PROVIDER),
            runner,
            rate_gbps,
        )
        rows.append((f"Type-{dfg_type}", alpha, fcfs, longest,
                     (longest - fcfs) / fcfs * 100.0))
    return TableResult(
        title="Ablation — APT ready-queue discipline (FCFS vs longest-first)",
        headers=("DFG", "alpha", "mean makespan (FCFS)",
                 "mean makespan (longest-first)", "delta %"),
        rows=tuple(rows),
        notes="Negative delta: longest-first wins.",
    )


def ablate_remaining_time(
    runner: ExperimentRunner | None = None,
    seed: int = DEFAULT_SEED,
    alphas: tuple[float, ...] = PAPER_ALPHAS,
    rate_gbps: float = 4.0,
) -> TableResult:
    """APT vs APT-RT (the paper's future-work extension) across α."""
    runner = runner if runner is not None else ExperimentRunner()
    rows = []
    for dfg_type in (1, 2):
        suite = paper_suite(dfg_type, seed)
        for alpha in alphas:
            apt = _mean_makespan(
                suite, PolicySpec.of("apt", alpha=alpha), runner, rate_gbps
            )
            apt_rt = _mean_makespan(
                suite, PolicySpec.of("apt_rt", alpha=alpha), runner, rate_gbps
            )
            rows.append((f"Type-{dfg_type}", alpha, apt, apt_rt,
                         (apt - apt_rt) / apt * 100.0))
    return TableResult(
        title="Ablation — remaining-time check (APT vs APT-RT)",
        headers=("DFG", "alpha", "mean makespan (APT)", "mean makespan (APT-RT)",
                 "APT-RT improvement %"),
        rows=tuple(rows),
        notes=(
            "APT-RT only diverts to an alternative that beats waiting for the "
            "busy best processor; expected to flatten the right side of the "
            "α-valley."
        ),
    )
