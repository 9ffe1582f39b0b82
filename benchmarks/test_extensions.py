"""Benchmarks for the extensions the paper did not evaluate:

* false-sharing avoidance on a coherent multiprocessor, and
* out-of-core list linearization through a paging layer (Section 2.2);
* adaptive mid-run relocation under a phase change, and
* Jouppi-style L1 miss-path stages behind layout-optimized code.

The first two are relocation-based optimizations that memory forwarding
makes safe; both are asserted to deliver the dramatic wins the paper
predicts.  The last two assert the headline claims pinned in
``BENCH_PR10.json`` and ``BENCH_PR6.json``.
"""

from repro.adapt import experiment as adapt_experiment
from repro.adapt.config import POLICIES
from repro.adapt.experiment import STATIC_ONCE
from repro.experiments import misspath
from repro.smp import run_false_sharing_experiment
from repro.vm import run_out_of_core_experiment


def test_false_sharing_avoidance(benchmark):
    before, after = benchmark.pedantic(
        lambda: run_false_sharing_experiment(cpus=4, per_cpu_records=32, rounds=40),
        rounds=1,
        iterations=1,
    )
    assert before.checksum == after.checksum
    # The paper: false sharing "can hurt performance dramatically as the
    # line ping-pongs between processors despite the fact that no real
    # communication is taking place."
    assert before.coherence_misses > 1000
    assert after.coherence_misses == 0
    assert before.cycles > 5 * after.cycles


def test_out_of_core_linearization(benchmark):
    scattered, linearized = benchmark.pedantic(
        lambda: run_out_of_core_experiment(
            nodes=300, span_pages=64, resident_pages=8, traversals=3
        ),
        rounds=1,
        iterations=1,
    )
    assert scattered.checksum == linearized.checksum
    # "We can apply data relocation to improve the spatial locality
    # within pages (and hence on disk) for out-of-core applications."
    assert linearized.page_faults < scattered.page_faults / 20
    assert linearized.cycles < scattered.cycles / 20


def test_adaptive_relocation_beats_static_once_under_phase_change(full_runner):
    result = adapt_experiment.run(full_runner, scale=1.0, policies=POLICIES)
    # Relocation never changes results.
    assert result.checksums_equal
    once = result.cell("mst_phase", STATIC_ONCE)
    # After mst_phase's access pattern flips, re-linearizing mid-run
    # beats the app's own one-shot optimizer...
    for arm in ("threshold", "hysteresis"):
        cell = result.cell("mst_phase", arm)
        assert cell.cycles < once.cycles, arm
        assert cell.decisions >= 1, arm
    # ...while epsilon-greedy pays its exploration tax and loses.
    assert result.cell("mst_phase", "epsilon_greedy").cycles > once.cycles
    # Do no harm: health_phase's periodic linearizer already recovers
    # from the flip, so every adaptive arm ties static-once exactly.
    once = result.cell("health_phase", STATIC_ONCE)
    for arm in POLICIES:
        cell = result.cell("health_phase", arm)
        assert cell.cycles == once.cycles, arm
        assert cell.decisions == 0, arm


def test_combined_misspath_absorbs_layout_conflict_misses(runner):
    mechanisms = ("none", "combined")
    runner.prime(misspath.specs(runner.scale, mechanisms=mechanisms))
    result = misspath.run(runner, scale=runner.scale, mechanisms=mechanisms)
    absorbed = result.mean_absorption
    normalized = result.mean_normalized_cycles
    # Layout optimization (L) reshuffles memory and manufactures conflict
    # misses; the combined victim-cache + stream-buffer stage soaks up a
    # larger share of L's full misses than of N's...
    assert absorbed[("combined", "L")] > absorbed[("combined", "N")]
    # ...and so takes more time off L than off N.
    assert normalized[("combined", "L")] < normalized[("combined", "N")] < 1.0
