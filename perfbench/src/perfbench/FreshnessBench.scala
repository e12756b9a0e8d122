package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.util.{BitSet => JBitSet}

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.bench.BenchDatasets
import repro.core._
import repro.spark.{StreamingSpade, TxFrames}

/** Replays a fixed window of the synthetic Grab1 stream through Spade's
  * public API and records, per server call, how long the call took and what
  * the reorder did. It never reads a clock to decide *when* to send an edge:
  * arrival is modelled in virtual time by `metrics.py`, so this program only
  * has to run the calls back to back and measure each one.
  *
  * One pass = rebuild the state at the window start (`loadGraph` of every
  * edge before the window), publish its suspects, then replay the window.
  * Passes repeat while another one fits in `--seconds` (at least one).
  * `--trace 1` runs whole untraced-traced-traced-untraced cycles of four
  * passes, so the tracing overhead is measured on identical work and a
  * warm-up trend across passes cancels out of it. The correctness gate
  * runs on the final state of the last pass, outside any timed region.
  *
  * Output files, next to `--out`: `.calls.tsv` (one row per call),
  * `.edges.tsv` (each window edge's arrival time, from its `ts`),
  * `.spans.tsv` (set-up spans, plus per-call spans of traced passes)
  * and `.summary.tsv` (counts, gate results, heap).
  */
object FreshnessBench {

  final case class Args(metric: Suspiciousness, mode: String, from: Int, count: Int, batch: Int,
                        seed: Long, seconds: Double, trace: Boolean, warmup: Int,
                        setupReps: Int, out: String)

  private val Beta = StreamReplay.DefaultSpotBeta

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val tracer = new Tracer
    val summary = scala.collection.mutable.LinkedHashMap.empty[String, String]
    val log = new CallLog
    var gateChecks = 0
    var gateFailures = 0
    def check(name: String, ok: Boolean, detail: => String): Unit = {
      gateChecks += 1
      if (!ok) { gateFailures += 1; println(s"GATE FAIL $name: $detail") }
    }

    // ---------------- set-up ----------------
    val setupRoot = tracer.begin("setup", -1, -1)
    val spark = tracer.span("spark.start", setupRoot, -1) {
      val s = SparkSession.builder()
        .master("local[2]")
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.local.dir", sys.props("java.io.tmpdir"))
        .config("spark.sql.warehouse.dir", new File(sys.props("java.io.tmpdir"), "warehouse").getPath)
        .getOrCreate()
      s.sparkContext.setLogLevel("ERROR")
      s
    }
    val spec = BenchDatasets.grabSpecs.head.copy(seed = a.seed)
    var init: Array[Tx] = null
    var inc: Array[Tx] = null
    var firstTxs: Array[Tx] = null
    (0 until a.setupReps).foreach { r =>
      val txs = tracer.span("spark.generate", setupRoot, -1) {
        TxFrames.collectOrdered(SynthData.txStream(spark, spec))
      }
      if (firstTxs == null) firstTxs = txs
      else check("generator-deterministic", firstTxs.sameElements(txs), s"set-up rep $r differs")
      val (i0, i1) = TxFrames.splitInitialIncrements(txs, spec.incrementFraction)
      init = i0; inc = i1
      tracer.span("spade.load", setupRoot, -1)(newState(a, init ++ inc.take(a.from)))
    }
    firstTxs = null
    require(a.from >= 0 && a.from + a.count <= inc.length,
      s"window [${a.from}, ${a.from + a.count}) outside the ${inc.length} increments")
    val prefix = init ++ inc.take(a.from)
    val window = inc.slice(a.from, a.from + a.count)
    val fraudEdges = window.count(_.isFraud)
    println(s"window: increments [${a.from}, ${a.from + a.count}) of ${inc.length}, " +
      s"fraud edges in window: $fraudEdges")

    val replay = new Replay(a, prefix, window, tracer, log)
    val warm = tracer.begin("warmup", setupRoot, -1)
    replay.pass(-1, traced = false, calls = a.warmup, parent = warm)
    tracer.end(warm)
    tracer.end(setupRoot)

    // ---------------- measured passes ----------------
    val t0 = System.nanoTime()
    var p = 0
    var first: (Int, Double) = null // prevented, density of pass 0
    var last: Replay.Outcome = null
    // another pass only if it still fits in --seconds at the mean pass time
    def fits: Boolean = (System.nanoTime() - t0) * (p + 1.0) / p <= a.seconds * 1e9
    while (p == 0 || (a.trace && p % 4 != 0) || fits) {
      last = null // let the previous pass's state go before the next load
      last = replay.pass(p, traced = a.trace && (p % 4 == 1 || p % 4 == 2), calls = window.length)
      val now = (last.prevented, last.spade.community.density)
      if (first == null) first = now
      else check("pass-deterministic", now == first, s"pass $p: (prevented, density) $now vs $first")
      p += 1
    }
    summary ++= Seq(
      "passes" -> p.toString,
      "measured_s" -> ((System.nanoTime() - t0) / 1e9).toString,
      "window_edges" -> window.length.toString,
      "fraud_edges" -> last.fraud.toString,
      "prevented" -> last.prevented.toString,
    )

    tracer.span("gate", -1, -1)(gate(a, last.spade, tracer, check, summary))
    check("fraud-in-window", fraudEdges > 0, "window holds no planted fraud edge")
    summary("gate_checks") = gateChecks.toString
    summary("gate_failures") = gateFailures.toString

    // heap held by the final state: used after a full GC with it, minus without it
    val withState = usedAfterGc()
    last = null
    summary("state_heap_bytes") = (withState - usedAfterGc()).toString

    log.write(new File(a.out + ".calls.tsv"))
    writeEdges(new File(a.out + ".edges.tsv"), window)
    tracer.write(new File(a.out + ".spans.tsv"))
    val w = new PrintWriter(new File(a.out + ".summary.tsv"))
    try summary.foreach { case (k, v) => w.println(s"$k\t$v") } finally w.close()
    spark.stop()
  }

  /** The correctness gate on the final state, against a static re-peel of
    * the same graph (timed three times for `static.peel_ms`).
    */
  private def gate(a: Args, spade: Spade, tracer: Tracer,
                   check: (String, Boolean, => String) => Unit,
                   summary: scala.collection.mutable.Map[String, String]): Unit = {
    var fresh: PeelOrder = null
    (0 until 3).foreach { _ => fresh = tracer.span("static.peel", -1, -1)(StaticPeeling.peel(spade.graph)) }
    // DG weights are integers, so every sum is exact and the maintained order
    // must equal the static one. DW amounts are cents and FD weights are
    // irrational: summation order moves the last ulp, fp near-ties may flip,
    // and the guarantee is a valid greedy order with the static density.
    val exact = a.metric eq Suspiciousness.DG
    val got = spade.order
    val differing = got.toVertexSeq.iterator.zip(fresh.toVertexSeq.iterator).count { case (x, y) => x != y }
    check("order-length", got.length == fresh.length, s"${got.length} vs ${fresh.length}")
    if (exact) {
      check("order-equals-static", differing == 0, s"$differing positions differ")
    } else {
      val bad = Gate.greedyViolation(spade.graph, got)
      check("order-valid-greedy", bad.isEmpty, bad.getOrElse(""))
      val dg = got.detect().density; val df = fresh.detect().density
      check("order-density", close(dg, df), s"$dg vs $df")
    }
    val staticCommunity = fresh.detect()
    val community = spade.community
    check("community-density", close(community.density, staticCommunity.density),
      s"${community.density} vs ${staticCommunity.density}")
    check("community-members", community.memberSet == staticCommunity.memberSet,
      s"|S|=${community.size} vs ${staticCommunity.size}")
    summary ++= Seq(
      "order_positions_differing" -> differing.toString,
      "graph_vertices" -> spade.graph.numVertices.toString,
      "graph_edges" -> spade.graph.numEdges.toString,
      "community_size" -> community.size.toString,
      "community_density" -> community.density.toString,
    )
  }

  /** Arrival time of each window edge, seconds after the first one's `ts`. */
  private def writeEdges(f: File, window: Array[Tx]): Unit = {
    val w = new PrintWriter(f)
    try {
      w.println("due_s")
      window.foreach(t => w.println(t.ts - window(0).ts))
    } finally w.close()
  }

  private def usedAfterGc(): Long =
    (0 until 3).map { _ => System.gc(); ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed }.min

  private def close(x: Double, y: Double): Boolean =
    math.abs(x - y) <= 1e-9 * math.max(1.0, math.abs(y))

  /** The state at the window start, freshly loaded. */
  private def newState(a: Args, prefix: Array[Tx]): Either[Spade, StreamingSpade] =
    if (a.mode == "batch") {
      val s = new StreamingSpade(a.metric, Beta)
      s.initialize(prefix.toSeq)
      Right(s)
    } else {
      val s = new Spade(a.metric)
      s.loadGraph(prefix)
      Left(s)
    }

  private def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val metric = Suspiciousness.paperMetrics.find(_.name == m("metric"))
      .getOrElse(sys.error(s"unknown metric ${m("metric")}"))
    val mode = m("mode")
    require(Set("single", "grouped", "batch")(mode), s"unknown mode $mode")
    Args(metric, mode, m("from").toInt, m("count").toInt, m.getOrElse("batch", "1").toInt,
      m("seed").toLong, m("seconds").toDouble, m("trace") == "1", m("warmup").toInt,
      m("setup-reps").toInt, m("out"))
  }

  /** One replay of the window from a freshly loaded state. */
  private final class Replay(a: Args, prefix: Array[Tx], window: Array[Tx],
                             tracer: Tracer, log: CallLog) {
    def pass(p: Int, traced: Boolean, calls: Int, parent: Int = -1): Replay.Outcome = {
      val state = tracer.span("spade.load", parent, p)(newState(a, prefix))
      val spade = state.fold(identity, _.spade)
      val published = new JBitSet()
      spade.detectSuspects(Beta).members.foreach(published.set)
      var fraud = 0
      var prevented = 0
      def submit(t: Tx): Unit = if (t.isFraud) {
        fraud += 1
        if (published.get(t.src) || published.get(t.dst)) prevented += 1
      }
      val record = p >= 0

      a.mode match {
        case "single" =>
          var i = 0
          while (i < calls) {
            val t = window(i)
            submit(t)
            var st: ReorderStats = null
            var sus: Community = null
            val ns = if (traced) {
              val root = tracer.begin("call", -1, p)
              st = tracer.span("spade.insertEdge", root, p)(spade.insertEdge(t))
              tracer.span("spade.detect", root, p)(spade.detect())
              sus = tracer.span("spade.detectSuspects", root, p)(spade.detectSuspects(Beta))
              tracer.end(root)
              tracer.durationNs(root)
            } else {
              val t0 = System.nanoTime()
              st = spade.insertEdge(t)
              spade.detect()
              sus = spade.detectSuspects(Beta)
              System.nanoTime() - t0
            }
            sus.members.foreach(published.set)
            if (record) log.add(p, traced, i, i, CallKind.Single, ns, st, sus.size)
            i += 1
          }

        case "grouped" =>
          var i = 0
          while (i < calls) {
            val t = window(i)
            submit(t)
            var flushed: Option[ReorderStats] = None
            var sus: Community = null
            val ns = if (traced) {
              val root = tracer.begin("call", -1, p)
              val child = tracer.begin("group.check", root, p)
              flushed = spade.insertGrouped(t)
              tracer.end(child)
              if (flushed.isDefined) {
                tracer.rename(child, "group.flush")
                sus = tracer.span("spade.detectSuspects", root, p)(spade.detectSuspects(Beta))
              }
              tracer.end(root)
              tracer.durationNs(root)
            } else {
              val t0 = System.nanoTime()
              flushed = spade.insertGrouped(t)
              if (flushed.isDefined) sus = spade.detectSuspects(Beta)
              System.nanoTime() - t0
            }
            if (sus != null) sus.members.foreach(published.set)
            if (record) log.add(p, traced, i, i,
              if (flushed.isDefined) CallKind.Flush else CallKind.Benign, ns, flushed.orNull,
              if (sus == null) -1 else sus.size)
            i += 1
          }
          spade.flushPending() // leftover benign edges, so the gate sees the whole window

        case "batch" =>
          val streaming = state.toOption.get
          val nBatches = (calls + a.batch - 1) / a.batch
          var b = 0
          while (b < nBatches) {
            val lo = b * a.batch
            val hi = math.min(calls, lo + a.batch)
            val chunk = java.util.Arrays.copyOfRange(window, lo, hi)
            chunk.foreach(submit)
            var rep: streaming.BatchReport = null
            val ns = if (traced) {
              val root = tracer.begin("call", -1, p)
              rep = tracer.span("stream.processBatch", root, p)(streaming.processBatch(b.toLong, chunk))
              tracer.end(root)
              tracer.durationNs(root)
            } else {
              val t0 = System.nanoTime()
              rep = streaming.processBatch(b.toLong, chunk)
              System.nanoTime() - t0
            }
            rep.newlySpotted.foreach(published.set)
            if (record) log.add(p, traced, lo, hi - 1, CallKind.Batch, ns, rep.stats, -1)
            b += 1
          }
      }
      Replay.Outcome(state, fraud, prevented)
    }
  }

  private object Replay {
    /** `state` is the Spade or the StreamingSpade around it. */
    final case class Outcome(state: Either[Spade, StreamingSpade], fraud: Int, prevented: Int) {
      def spade: Spade = state.fold(identity, _.spade)
    }
  }
}

/** Checks of the maintained order against the graph it claims to peel. */
object Gate {

  /** A valid greedy peeling order removes, at every step, a vertex whose
    * peel weight against the remaining set is minimal, and stores that
    * weight. Returns a description of the first violation. O(E log V).
    * Tolerances absorb last-ulp differences between summation orders.
    */
  def greedyViolation(g: DynGraph, o: PeelOrder): Option[String] = {
    val heap = new IndexedMinHeap(g.numVertices)
    var u = 0
    while (u < g.numVertices) { heap.insert(u, g.incidentWeight(u)); u += 1 }
    var p = o.start
    while (p < o.end) {
      val v = o.vertexAt(p)
      if (!heap.contains(v)) return Some(s"u$v appears twice (pos $p)")
      val w = heap.keyOf(v)
      val tol = 1e-9 * math.max(1.0, math.abs(w))
      if (math.abs(w - o.weightAt(p)) > tol)
        return Some(s"stored weight of u$v at pos $p is ${o.weightAt(p)}, recomputed $w")
      if (w > heap.minKey + tol)
        return Some(s"at pos $p u$v (w=$w) peeled before u${heap.minId} (w=${heap.minKey})")
      heap.changeKey(v, Double.NegativeInfinity)
      heap.popMin()
      g.foreachIncident(v) { (x, c) => if (heap.contains(x)) heap.addTo(x, -c) }
      p += 1
    }
    if (heap.nonEmpty) Some(s"${heap.size} vertices missing from the order") else None
  }
}
