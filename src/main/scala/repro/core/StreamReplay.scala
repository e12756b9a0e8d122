package repro.core

import scala.collection.mutable

/** Discrete-event replay of an update stream `ΔG^τ` (§4.3), producing the
  * evaluation metrics of §5:
  *
  *  - *maintenance* and *suspects time*: measured wall time per phase, as
  *    below (Tables 4 and 5 report maintenance time per edge);
  *  - *latency* `L` (Eq. 4): virtual response time — an edge arriving at
  *    `τ_i` is responded to when the flush containing it completes; measured
  *    processing wall-time is mapped 1:1 into virtual seconds;
  *  - *queueing time*: flush start minus arrival (§5.2 notes 99.99% of
  *    batch-mode latency is queueing);
  *  - *prevention ratio* `R`: once a vertex appears in the detected
  *    community, later fraud-labeled transactions touching it count as
  *    prevented (the paper's moderators ban the account). Prevented edges
  *    are still inserted — we only account, so every mode sees the same
  *    final graph.
  *
  * Each replay builds a fresh [[Spade]], loads `initial`, then replays
  * `increments` in arrival order. Both incremental modes run one loop on
  * one virtual server and differ only in when a flush fires. Every Spade
  * call they make is timed once, advances the virtual clock and is charged
  * to one phase: the calls that make the sequence and the community
  * current (`insertBatchEdges` + `detect`, or `insertGrouped` /
  * `flushPending`, benign checks included) to `maintenanceNanos`,
  * `detectSuspects` to `suspectsNanos`. A flush's response time includes
  * both.
  */
object StreamReplay {

  /** Default spotting threshold: a vertex is a suspect when it sits in the
    * largest suffix within 60% of the best density (Fig. 14 semantics —
    * equally dense instances are all reported).
    */
  val DefaultSpotBeta = 0.6

  /** Chunk size, in edges, of the capability oracle behind [[replayStatic]]. */
  val OracleGranularity = 200

  /** Aggregated result of one replay configuration. */
  final case class ReplayResult(
      mode: String,
      edges: Int,
      flushes: Int,
      maintenanceNanos: Long,
      suspectsNanos: Long,
      avgLatencyAll: Double,
      avgLatencyFraud: Double,
      avgQueueing: Double,
      preventionRatio: Double,
      fraudEdges: Int,
      spottedVertices: Int,
      stats: ReorderStats,
      staticRunSeconds: Double = 0.0,
  ) {
    /** Average maintenance time per edge, in microseconds. */
    def perEdgeMicros: Double = if (edges == 0) 0.0 else maintenanceNanos / 1e3 / edges
  }

  /** Tracks per-vertex spotting times, scores fraud edges, sums responses. */
  private final class PreventionTracker {
    private val spottedAt = mutable.HashMap.empty[Int, Double]
    private var fraudTotal = 0
    private var fraudPrevented = 0
    private var latencyAllSum = 0.0
    private var latencyFraudSum = 0.0
    private var queueSum = 0.0
    private var nAll = 0

    def observeArrival(t: Tx): Unit = {
      if (t.isFraud) {
        fraudTotal += 1
        val hit = spottedAt.get(t.src).exists(_ < t.ts) || spottedAt.get(t.dst).exists(_ < t.ts)
        if (hit) fraudPrevented += 1
      }
    }

    def recordResponse(t: Tx, flushStart: Double, completion: Double): Unit = {
      val lat = completion - t.ts
      latencyAllSum += lat
      queueSum += math.max(0.0, flushStart - t.ts)
      if (t.isFraud) latencyFraudSum += lat
      nAll += 1
    }

    /** `v` is banned from `visibleAt` on, unless it already was earlier. */
    def spot(v: Int, visibleAt: Double): Unit =
      if (!spottedAt.contains(v)) spottedAt(v) = visibleAt

    /** The result of a replay that answered every edge once. */
    def result(mode: String, flushes: Int, maintNanos: Long, suspectsNanos: Long,
               agg: ReorderStats): ReplayResult = {
      val n = math.max(1, nAll)
      ReplayResult(
        mode = mode,
        edges = nAll,
        flushes = flushes,
        maintenanceNanos = maintNanos,
        suspectsNanos = suspectsNanos,
        avgLatencyAll = latencyAllSum / n,
        avgLatencyFraud = if (fraudTotal == 0) 0.0 else latencyFraudSum / fraudTotal,
        avgQueueing = queueSum / n,
        preventionRatio = if (fraudTotal == 0) 0.0 else fraudPrevented.toDouble / fraudTotal,
        fraudEdges = fraudTotal,
        spottedVertices = spottedAt.size,
        stats = agg,
      )
    }
  }

  /** A completed flush: its reorder stats, and whether to spot after it. */
  private final case class Flush(stats: ReorderStats, spot: Boolean)

  /** The virtual single-threaded server of an incremental replay. */
  private final class Server(val spade: Spade, var clock: Double) {
    /** Arrivals since the last flush; the next flush answers them. */
    val queued = mutable.ArrayBuffer.empty[Tx]
    var flushes = 0
    var maintenanceNanos = 0L
    var suspectsNanos = 0L

    def maintain[A](call: => A): A = timed(call)(maintenanceNanos += _)
    def suspects(): Community = timed(spade.detectSuspects(DefaultSpotBeta))(suspectsNanos += _)

    private def timed[A](call: => A)(charge: Long => Unit): A = {
      val t0 = System.nanoTime()
      val r = call
      val ns = System.nanoTime() - t0
      charge(ns)
      clock += ns / 1e9
      r
    }
  }

  /** The one loop behind both incremental modes: per arrival, from
    * `max(arrival, clock)`, `arrive(server, edge, isLast)` makes the mode's
    * calls through `server.maintain`; when it reports a flush, the loop
    * spots if asked and answers every queued edge.
    */
  private def replayIncremental(mode: String, metric: Suspiciousness, initial: Seq[Tx],
                                increments: Seq[Tx])
                               (arrive: (Server, Tx, Boolean) => Option[Flush]): ReplayResult = {
    val spade = new Spade(metric)
    spade.loadGraph(initial)
    val tracker = new PreventionTracker
    if (increments.isEmpty) return tracker.result(mode, 0, 0L, 0L, ReorderStats.zero)
    // fraudsters known from the initial graph are already banned when the
    // stream starts — every mode (incl. static) gets this head start
    spade.detectSuspects(DefaultSpotBeta).members.foreach(tracker.spot(_, increments.head.ts - 1.0))
    val server = new Server(spade, increments.head.ts)
    var agg = ReorderStats.zero
    val lastIdx = increments.length - 1
    increments.iterator.zipWithIndex.foreach { case (t, i) =>
      tracker.observeArrival(t)
      server.queued += t
      server.clock = math.max(server.clock, t.ts)
      val start = server.clock
      arrive(server, t, i == lastIdx).foreach { f =>
        if (f.spot) server.suspects().members.foreach(tracker.spot(_, server.clock))
        server.queued.foreach(tracker.recordResponse(_, start, server.clock))
        server.queued.clear()
        server.flushes += 1
        agg = agg.merge(f.stats)
      }
    }
    tracker.result(mode, server.flushes, server.maintenanceNanos, server.suspectsNanos, agg)
  }

  /** Replay with fixed-size batches (`IncX-batch` rows of Tables 4/5).
    * A flush fires when `batchSize` edges have queued, or at the end of the
    * stream, and runs the Algorithm-2 reorder. `detect` and spotting run
    * every `detectEvery` flushes: Table 4 uses a coarser cadence for tiny
    * batch sizes, so the O(|V|) walks are amortized over many edges.
    */
  def replayBatched(metric: Suspiciousness, initial: Seq[Tx], increments: Seq[Tx],
                    batchSize: Int, detectEvery: Int = 1): ReplayResult = {
    require(batchSize >= 1, "batch size must be >= 1")
    require(detectEvery >= 1, "detectEvery must be >= 1")
    replayIncremental("batch-" + batchSize, metric, initial, increments) { (server, _, last) =>
      if (server.queued.length < batchSize && !last) None
      else {
        val st = server.maintain(server.spade.insertBatchEdges(server.queued.toSeq))
        val detect = (server.flushes + 1) % detectEvery == 0
        if (detect) server.maintain(server.spade.detect())
        Some(Flush(st, spot = detect))
      }
    }
  }

  /** Replay with edge grouping (§4.3, the `IncXG` rows): benign edges
    * buffer, an urgent edge flushes everything pending immediately.
    */
  def replayGrouped(metric: Suspiciousness, initial: Seq[Tx], increments: Seq[Tx]): ReplayResult =
    replayIncremental("grouped", metric, initial, increments) { (server, t, last) =>
      val spade = server.spade
      server.maintain(spade.insertGrouped(t))
        .orElse(if (last) Some(server.maintain(spade.flushPending())) else None)
        .map(Flush(_, spot = true))
    }

  /** The static baseline (the DG/DW/FD columns): from-scratch peeling runs
    * back to back; an edge is answered by the first run whose snapshot was
    * taken at or after its arrival. The run duration `E_s` is measured on
    * the final graph; spotting capability per vertex is taken from a
    * zero-cost incremental oracle pass at [[OracleGranularity]] edges, since
    * the static algorithm detects exactly what the incremental one does —
    * only later.
    */
  def replayStatic(metric: Suspiciousness, initial: Seq[Tx], increments: Seq[Tx]): ReplayResult = {
    val runSec = staticPeelSeconds(metric, initial ++ increments)
    val capability = detectionCapability(metric, initial, increments, OracleGranularity)

    val t0 = if (increments.isEmpty) 0.0 else increments.head.ts
    def snapshotAfter(ts: Double): Double = {
      // Runs start at t0, t0+E_s, t0+2E_s, ...; first snapshot taken at or
      // after ts completes one run-length later.
      val j = math.ceil(math.max(0.0, ts - t0) / runSec)
      t0 + (j + 1) * runSec
    }

    val tracker = new PreventionTracker
    // fraudsters known before the stream started (capability < t0) were
    // banned by the previous pipeline run already
    capability.foreach { case (v, capTs) =>
      tracker.spot(v, if (capTs < t0) t0 else snapshotAfter(capTs))
    }
    increments.foreach { t =>
      tracker.observeArrival(t)
      val completion = snapshotAfter(t.ts)
      tracker.recordResponse(t, completion - runSec, completion)
    }
    tracker.result("static", increments.length, 0L, 0L, ReorderStats.zero)
      .copy(staticRunSeconds = runSec)
  }

  /** Static `E_s` of Tables 4 and 5: seconds of one static peel of the
    * graph `txs` build, best of two runs.
    */
  def staticPeelSeconds(metric: Suspiciousness, txs: Seq[Tx]): Double = {
    val full = new Spade(metric)
    full.loadGraph(txs)
    (1 to 2).map { _ =>
      val t0 = System.nanoTime()
      StaticPeeling.peel(full.graph)
      System.nanoTime() - t0
    }.min / 1e9
  }

  /** First-detectable arrival time per vertex: incremental replay in chunks
    * of `granularity` with zero processing cost — the algorithm-capability
    * oracle shared by the static latency model.
    */
  def detectionCapability(metric: Suspiciousness, initial: Seq[Tx], increments: Seq[Tx],
                          granularity: Int): Map[Int, Double] = {
    val spade = new Spade(metric)
    spade.loadGraph(initial)
    val capability = mutable.HashMap.empty[Int, Double]
    val t0 = if (increments.isEmpty) 0.0 else increments.head.ts
    spade.detectSuspects(DefaultSpotBeta).members.foreach(v => capability.getOrElseUpdate(v, t0 - 1.0))
    increments.grouped(granularity).foreach { chunk =>
      spade.insertBatchEdges(chunk)
      val c = spade.detectSuspects(DefaultSpotBeta)
      val ts = chunk.last.ts
      c.members.foreach(v => capability.getOrElseUpdate(v, ts))
    }
    capability.toMap
  }
}
