package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The replay harness behind Tables 4–5: latency (Eq. 4), queueing time and
  * prevention ratio semantics.
  */
class StreamReplaySpec extends AnyFunSuite {
  import TestUtil._

  /** Background stream plus one labeled fraud burst in the tail. */
  private def streamWithBurst(seed: Long = 5): (Seq[Tx], Seq[Tx]) = {
    val bg = randomTxs(40, 300, seed).zipWithIndex.map { case (t, i) => t.copy(ts = i * 1.0, amount = 1.0) }
    val burstStart = 300.0
    val burst = for {
      i <- 0 until 30
    } yield Tx(50 + i % 3, 55, amount = 3.0, ts = burstStart + i * 0.1, fraudId = 0)
    val tail = bg.takeRight(30)
    val initial = bg.dropRight(30)
    val increments = (tail ++ burst).sortBy(_.ts)
    (initial, increments)
  }

  test("batched replay counts every edge exactly once") {
    val (init, inc) = streamWithBurst()
    val r = StreamReplay.replayBatched(Suspiciousness.DW, init, inc, batchSize = 7)
    assert(r.edges == inc.length)
    assert(r.flushes == math.ceil(inc.length / 7.0).toInt)
  }

  test("latency is at least the queueing time and positive") {
    val (init, inc) = streamWithBurst()
    val r = StreamReplay.replayBatched(Suspiciousness.DW, init, inc, batchSize = 10)
    assert(r.avgLatencyAll > 0)
    assert(r.avgLatencyAll >= r.avgQueueing - 1e-12)
  }

  test("bigger batches mean more queueing (virtual time)") {
    val (init, inc) = streamWithBurst()
    val small = StreamReplay.replayBatched(Suspiciousness.DW, init, inc, batchSize = 2)
    val big = StreamReplay.replayBatched(Suspiciousness.DW, init, inc, batchSize = 30)
    assert(big.avgQueueing > small.avgQueueing)
  }

  test("the fraud burst is detected and later burst edges count as prevented") {
    val (init, inc) = streamWithBurst()
    val r = StreamReplay.replayBatched(Suspiciousness.DW, init, inc, batchSize = 5)
    assert(r.fraudEdges == 30)
    assert(r.preventionRatio > 0.3, s"prevention ${r.preventionRatio}")
    assert(r.spottedVertices > 0)
  }

  test("grouped replay reacts to the burst at least as fast as batch-1K") {
    val (init, inc) = streamWithBurst()
    val grouped = StreamReplay.replayGrouped(Suspiciousness.DW, init, inc)
    val batched = StreamReplay.replayBatched(Suspiciousness.DW, init, inc, batchSize = 1000)
    assert(grouped.preventionRatio >= batched.preventionRatio - 1e-9,
      s"grouped ${grouped.preventionRatio} vs batched ${batched.preventionRatio}")
    assert(grouped.avgLatencyFraud <= batched.avgLatencyFraud + 1e-9)
  }

  test("grouped replay flushes at least once per urgent burst and drains fully") {
    val (init, inc) = streamWithBurst()
    val r = StreamReplay.replayGrouped(Suspiciousness.DW, init, inc)
    assert(r.flushes >= 1)
    assert(r.edges == inc.length)
  }

  test("both incremental modes time spotting and put it in the response time") {
    val (init, inc) = streamWithBurst()
    Seq(
      StreamReplay.replayBatched(Suspiciousness.DW, init, inc, batchSize = 10),
      StreamReplay.replayGrouped(Suspiciousness.DW, init, inc),
    ).foreach { r =>
      assert(r.suspectsNanos > 0, r.mode)
      // latency minus queueing is the service time of the edge's flush
      val service = r.avgLatencyAll - r.avgQueueing
      val suspectsPerEdge = r.suspectsNanos / 1e9 / r.edges
      assert(service >= suspectsPerEdge - 1e-9,
        s"${r.mode}: service $service s < suspects $suspectsPerEdge s per edge")
    }
  }

  test("static replay: per-edge latency spans one to two run lengths") {
    val (init, inc) = streamWithBurst()
    val r = StreamReplay.replayStatic(Suspiciousness.DW, init, inc)
    assert(r.staticRunSeconds > 0)
    assert(r.avgLatencyAll >= r.staticRunSeconds - 1e-9)
    assert(r.avgLatencyAll <= 2 * r.staticRunSeconds + (inc.last.ts - inc.head.ts))
  }

  test("prevention ratios are well-formed probabilities in every mode") {
    // On toy graphs the measured static run is microseconds, so the
    // static-vs-incremental prevention ordering only emerges at bench scale
    // (Table 5); here we check the metric is well-defined everywhere.
    val (init, inc) = streamWithBurst()
    val st = StreamReplay.replayStatic(Suspiciousness.DW, init, inc)
    val gr = StreamReplay.replayGrouped(Suspiciousness.DW, init, inc)
    val ba = StreamReplay.replayBatched(Suspiciousness.DW, init, inc, batchSize = 1000)
    Seq(st, gr, ba).foreach { r =>
      assert(r.preventionRatio >= 0.0 && r.preventionRatio <= 1.0)
      assert(r.fraudEdges == 30)
    }
    // a single end-of-stream flush can prevent nothing
    assert(ba.preventionRatio == 0.0)
  }

  test("detectionCapability marks the burst merchant detectable inside the burst") {
    val (init, inc) = streamWithBurst()
    val cap = StreamReplay.detectionCapability(Suspiciousness.DW, init, inc, granularity = 5)
    assert(cap.contains(55), "burst merchant never detectable")
    val burstTimes = inc.filter(_.isFraud).map(_.ts)
    assert(cap(55) >= burstTimes.min && cap(55) <= burstTimes.max + 1.0)
  }

  test("maintenance time per edge is far below the static run time") {
    val (init, inc) = streamWithBurst()
    val incR = StreamReplay.replayBatched(Suspiciousness.DW, init, inc, batchSize = 1)
    val stR = StreamReplay.replayStatic(Suspiciousness.DW, init, inc)
    assert(incR.perEdgeMicros * 1e-6 < stR.staticRunSeconds * 10,
      "incremental slower than 10 static runs — harness broken")
  }

  test("empty increments yield a zeroed result") {
    val (init, _) = streamWithBurst()
    val r = StreamReplay.replayBatched(Suspiciousness.DW, init, Seq.empty, batchSize = 4)
    assert(r.edges == 0 && r.flushes == 0 && r.preventionRatio == 0.0)
  }

  test("replay leaves a state identical to offline batch insertion") {
    val (init, inc) = streamWithBurst()
    StreamReplay.replayBatched(Suspiciousness.DW, init, inc, batchSize = 9) // result ignored
    val offline = loadedSpade(Suspiciousness.DW, init)
    offline.insertBatchEdges(inc)
    val replayed = loadedSpade(Suspiciousness.DW, init ++ inc)
    assert(offline.order.toVertexSeq == replayed.order.toVertexSeq)
  }
}
