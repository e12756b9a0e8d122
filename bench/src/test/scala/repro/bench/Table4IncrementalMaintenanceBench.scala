package repro.bench

import repro.SparkSpec
import repro.core.Suspiciousness

/** Reproduces Table 4: static peeling runtime vs per-edge incremental
  * maintenance time across batch sizes, plus the Fig. 10 speedup claim and
  * the §5.1 affected-area fractions, at `TableRunners.Table4BatchSizes`.
  */
class Table4IncrementalMaintenanceBench extends SparkSpec {

  private val batchSizes = TableRunners.Table4BatchSizes

  test("Table 4: incremental maintenance by batch size") {
    val rows = for {
      spec <- BenchDatasets.allSpecs
      metric <- Suspiciousness.paperMetrics
    } yield TableRunners.table4Cell(spark, spec, metric, batchSizes)

    TableRunners.printTable4(rows, batchSizes)

    println("\n--- paper reference (Table 4): static s | µs/edge at |ΔE|=1 ---")
    BenchDatasets.allSpecs.foreach { s =>
      val st = BenchDatasets.PaperNumbers.staticSeconds(s.name)
      val inc = BenchDatasets.PaperNumbers.incSingleMicros(s.name)
      println(f"${s.name}%-10s DG ${st._1}%8.3f | ${inc._1}%8.1f    " +
        f"DW ${st._2}%8.3f | ${inc._2}%8.1f    FD ${st._3}%8.3f | ${inc._3}%8.1f")
    }

    val byKey = rows.map(r => (r.dataset, r.metric) -> r).toMap

    // Claim 1 (Fig. 10): single-edge incremental maintenance beats static
    // recomputation by orders of magnitude, on every dataset and metric.
    rows.foreach { r =>
      val speedup = r.staticSeconds * 1e6 / r.perBatchMicros(1)
      assert(speedup > 100, s"${r.dataset}/${r.metric}: speedup only $speedup")
    }

    // Claim 2 (Table 4 trend): per-edge time decreases as batch size grows.
    rows.foreach { r =>
      assert(r.perBatchMicros(10000) < r.perBatchMicros(1),
        s"${r.dataset}/${r.metric}: batching did not amortize " +
          s"(${r.perBatchMicros(1)} -> ${r.perBatchMicros(10000)})")
    }

    // Claim 3 (§5.1): IncFD touches a smaller affected area than IncDG —
    // FD's logarithmic edge weights damp the reorder cascades.
    BenchDatasets.grabSpecs.foreach { s =>
      val dg = byKey((s.name, "DG")).affectedEdgeFraction
      val fd = byKey((s.name, "FD")).affectedEdgeFraction
      assert(fd < dg, s"${s.name}: FD fraction $fd !< DG fraction $dg")
    }

    // Claim 4 (scalability): static runtime grows with |E| across Grab1..4.
    Suspiciousness.paperMetrics.foreach { m =>
      val times = BenchDatasets.grabSpecs.map(s => byKey((s.name, m.name)).staticSeconds)
      assert(times.last > times.head, s"${m.name}: static time not growing: $times")
    }
  }
}
