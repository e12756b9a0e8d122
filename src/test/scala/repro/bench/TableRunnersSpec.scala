package repro.bench

import repro.SparkSpec
import repro.SynthData.TxStreamSpec
import repro.core.Suspiciousness

/** The table runners behind `bench/` and `jobs/`, on a tiny stream: every
  * row they produce is well formed. The paper-scale claims stay in `bench/`.
  */
class TableRunnersSpec extends SparkSpec {

  private val spec = TxStreamSpec(name = "runners", nCustomers = 300, nMerchants = 150,
    backgroundEdges = 2000, ratePerSec = 50, initBlocks = 2, incBlocks = 2,
    blockCustomers = 5, blockMerchants = 3, blockMultiplicity = 2, seed = 11)

  private val metrics = Suspiciousness.paperMetrics

  private def positive(x: Double): Boolean = x > 0 && x < Double.PositiveInfinity

  private def ratio(x: Double): Boolean = x >= 0 && x <= 1

  test("table3: statistics of the stream") {
    val stats = TableRunners.table3(spark, Seq(spec))
    TableRunners.printTable3(stats)
    val Seq(s) = stats
    assert(s.name == spec.name)
    assert(s.e == spec.totalEdges)
    assert(s.v > 0 && s.v <= spec.totalVertices)
    assert(math.abs(s.avgDegree - 2.0 * s.e / s.v) < 1e-9)
    assert(s.increments == s.e - (s.e * (1 - spec.incrementFraction)).toInt)
    assert(s.fraudEdges == (spec.initBlocks + spec.incBlocks) * spec.blockEdges)
  }

  test("table4Cell: static time and per-edge times at batch sizes 1 and 10") {
    val sizes = Seq(1, 10)
    val rows = metrics.map(m => TableRunners.table4Cell(spark, spec, m, sizes))
    TableRunners.printTable4(rows, sizes)
    rows.zip(metrics).foreach { case (r, m) =>
      assert(r.dataset == spec.name && r.metric == m.name)
      assert(positive(r.staticSeconds), r.toString)
      assert(r.perBatchMicros.keySet == sizes.toSet, r.toString)
      assert(r.perBatchMicros.values.forall(positive), r.toString)
      assert(positive(r.affectedEdgeFraction), r.toString)
    }
  }

  test("table5Cell: static, Inc-1K and grouped rows") {
    val rows = metrics.map(m => TableRunners.table5Cell(spark, spec, m))
    TableRunners.printTable5(rows)
    rows.zip(metrics).foreach { case (r, m) =>
      assert(r.dataset == spec.name && r.metric == m.name)
      assert(positive(r.staticSeconds), r.toString)
      assert(positive(r.inc1kMicros) && positive(r.groupMicros), r.toString)
      assert(positive(r.inc1kLatencyNorm) && positive(r.groupLatencyNorm), r.toString)
      assert(ratio(r.staticPrevention) && ratio(r.inc1kPrevention) && ratio(r.groupPrevention),
        r.toString)
      assert(r.groupFlushes >= 1, r.toString)
    }
  }
}
