package repro.bench

import repro.SparkSpec
import repro.core.Suspiciousness

/** Reproduces Table 5 (elapsed time ε and normalized latency L of static vs
  * Inc-1K vs edge grouping on the Grab-like datasets) and the §5.2 / Fig. 9a
  * prevention-ratio claims.
  */
class Table5LatencyGroupingBench extends SparkSpec {

  test("Table 5: latency and edge grouping on Grab1-4") {
    val rows = for {
      spec <- BenchDatasets.grabSpecs
      metric <- Suspiciousness.paperMetrics
    } yield TableRunners.table5Cell(spark, spec, metric)

    TableRunners.printTable5(rows)
    println("\n--- paper reference (Table 5 / §5.2): Inc-1K L on Grab1 ≈ 2.5–2.9, on Grab4 ≈ 0.74–0.76;")
    println("    grouping L ≈ 0.004–0.03; prevention (grouping) DG/DW/FD: " +
      BenchDatasets.PaperNumbers.preventionGrouped + " ---")

    val byKey = rows.map(r => (r.dataset, r.metric) -> r).toMap

    // Claim 1: grouping responds orders of magnitude faster than batch-1K
    // (latency is queueing-dominated; urgent edges flush immediately).
    rows.foreach { r =>
      assert(r.groupLatencyNorm < r.inc1kLatencyNorm,
        s"${r.dataset}/${r.metric}: grouping L ${r.groupLatencyNorm} !< Inc1K L ${r.inc1kLatencyNorm}")
    }

    // Claim 2 (Table 5 inversion): the batch-1K latency normalized to static
    // falls from Grab1 to Grab4 — slow arrivals make queueing dominate.
    Suspiciousness.paperMetrics.foreach { m =>
      val l1 = byKey(("Grab1", m.name)).inc1kLatencyNorm
      val l4 = byKey(("Grab4", m.name)).inc1kLatencyNorm
      assert(l1 > l4, s"${m.name}: Inc1K L Grab1 $l1 !> Grab4 $l4")
    }

    // Claim 3 (Fig. 9a / §5.2): grouping prevents the large majority of the
    // labeled fraud; batch-1K prevents less (it waits for the queue).
    rows.foreach { r =>
      assert(r.groupPrevention > 0.5,
        s"${r.dataset}/${r.metric}: grouping prevention only ${r.groupPrevention}")
      assert(r.groupPrevention >= r.inc1kPrevention - 0.05,
        s"${r.dataset}/${r.metric}: grouping ${r.groupPrevention} < batch ${r.inc1kPrevention}")
    }

    // Claim 4: static prevention is the worst — a full re-peel pipeline
    // cannot react inside a burst.
    rows.foreach { r =>
      assert(r.staticPrevention <= r.groupPrevention + 1e-9,
        s"${r.dataset}/${r.metric}: static ${r.staticPrevention} beats grouping?!")
    }
  }
}
