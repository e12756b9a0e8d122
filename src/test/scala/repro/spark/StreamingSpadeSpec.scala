package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.{SparkSpec, SynthData}
import repro.SynthData.TxStreamSpec
import repro.core.{ReorderStats, Spade, Suspiciousness, Tx}

/** Top-level so Spark can generate an encoder for it. */
case class TxRow(src: Int, dst: Int, amount: Double, ts: Double, fraudId: Int)

/** Structured-Streaming micro-batch maintenance: the streaming pipeline must
  * end in exactly the state an offline batch replay produces.
  */
class StreamingSpadeSpec extends SparkSpec {

  private def streamData(): (Array[Tx], Array[Tx]) = {
    val spec = TxStreamSpec(name = "stream", nCustomers = 150, nMerchants = 80,
      backgroundEdges = 1200, ratePerSec = 50, initBlocks = 1, incBlocks = 1,
      blockCustomers = 4, blockMerchants = 3, blockMultiplicity = 6, seed = 13)
    val txs = TxFrames.collectOrdered(SynthData.txStream(spark, spec))
    TxFrames.splitInitialIncrements(txs, spec.incrementFraction)
  }

  private def runStream(init: Array[Tx], chunks: Seq[Array[Tx]]): StreamingSpade = {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val source = MemoryStream[TxRow]
    val pipeline = new StreamingSpade(Suspiciousness.DW)
    pipeline.initialize(init.toSeq)
    val query = pipeline.start(source.toDF(), queryName = s"spade-test-${System.nanoTime()}")
    try {
      chunks.foreach { chunk =>
        source.addData(chunk.map(t => TxRow(t.src, t.dst, t.amount, t.ts, t.fraudId)).toSeq)
        query.processAllAvailable()
      }
    } finally query.stop()
    pipeline
  }

  test("micro-batched streaming equals offline batch insertion") {
    val (init, inc) = streamData()
    val chunks = inc.grouped(40).toSeq
    val pipeline = runStream(init, chunks)

    val offline = new Spade(Suspiciousness.DW)
    offline.loadGraph(init.toSeq)
    chunks.foreach(c => offline.insertBatchEdges(c.toSeq))

    assert(pipeline.spade.graph.numEdges == offline.graph.numEdges)
    assert(pipeline.spade.order.toVertexSeq == offline.order.toVertexSeq)
    assert(math.abs(pipeline.spade.detect().density - offline.detect().density) < 1e-9)
  }

  test("every micro-batch produces a report with the running community") {
    val (init, inc) = streamData()
    val chunks = inc.grouped(30).toSeq
    val pipeline = runStream(init, chunks)
    val reports = pipeline.reports
    assert(reports.nonEmpty)
    assert(reports.map(_.edges).sum == inc.length)
    assert(reports.map(_.batchId).distinct.length == reports.length)
    assert(reports.forall(_.community.density > 0))
  }

  test("the planted increment block is spotted while streaming") {
    val (init, inc) = streamData()
    val blockVertices = inc.filter(_.fraudId >= 0).flatMap(t => Seq(t.src, t.dst)).toSet
    val pipeline = runStream(init, inc.grouped(25).toSeq)
    assert(pipeline.spottedVertices.intersect(blockVertices).nonEmpty,
      s"block $blockVertices never spotted")
    // the batch that first saw the block reports its members as newly spotted
    val firstSpot = pipeline.reports.find(_.newlySpotted.exists(blockVertices.contains))
    assert(firstSpot.isDefined)
  }

  test("chunk boundaries do not change the final state (exactly-once folding)") {
    val (init, inc) = streamData()
    val a = runStream(init, inc.grouped(17).toSeq)
    val b = runStream(init, inc.grouped(64).toSeq)
    // generator amounts are not dyadic, so fp ties may legally flip between
    // chunkings — compare graph size, order length and detected density
    assert(a.spade.graph.numEdges == b.spade.graph.numEdges)
    assert(a.spade.order.length == b.spade.order.length)
    assert(math.abs(a.spade.detect().density - b.spade.detect().density) < 1e-6)
  }

  test("malformed rows are skipped and counted: the state equals an offline replay of the valid rows") {
    val (init, inc) = streamData()
    val chunks = inc.grouped(40).toArray
    val bad = Array(Tx(5, 5, 1.0), Tx(100000, 100000, 1.0), Tx(-3, 7, 1.0), Tx(7, 9, 0.0),
      Tx(8, 10, -2.0), Tx(9, 11, Double.NaN))
    val pipeline = new StreamingSpade(Suspiciousness.DW)
    pipeline.initialize(init.toSeq)
    chunks.indices.foreach { b =>
      val (lo, hi) = chunks(b).splitAt(chunks(b).length / 2)
      val rep = pipeline.processBatch(b.toLong, lo ++ bad ++ hi)
      assert(rep.edges == chunks(b).length && rep.rejected == bad.length)
    }

    val offline = new Spade(Suspiciousness.DW)
    offline.loadGraph(init.toSeq)
    chunks.foreach(c => offline.insertBatchEdges(c.toSeq))

    assert(pipeline.spade.graph.numVertices == offline.graph.numVertices)
    assert(pipeline.spade.graph.numEdges == offline.graph.numEdges)
    assert(pipeline.spade.order.toVertexSeq == offline.order.toVertexSeq)
    assert(pipeline.spade.community.density == offline.detect().density)
  }

  test("a replayed batchId is skipped: applying batch k twice equals applying it once") {
    val (init, inc) = streamData()
    val chunks = inc.grouped(40).toArray
    val k = chunks.length / 2
    def fold(replayK: Boolean): StreamingSpade = {
      val p = new StreamingSpade(Suspiciousness.DW)
      p.initialize(init.toSeq)
      chunks.indices.foreach { b =>
        p.processBatch(b.toLong, chunks(b))
        if (replayK && b == k) {
          val again = p.processBatch(b.toLong, chunks(b))
          assert(again.edges == 0 && again.newlySpotted.isEmpty && again.stats == ReorderStats.zero)
        }
      }
      p
    }
    val once = fold(replayK = false)
    val twice = fold(replayK = true)
    assert(twice.spade.graph.numEdges == once.spade.graph.numEdges)
    assert(twice.spade.order.toVertexSeq == once.spade.order.toVertexSeq)
    assert(twice.spade.community.memberSet == once.spade.community.memberSet)
    assert(twice.spade.community.density == once.spade.community.density)
    assert(twice.reports.length == once.reports.length)
  }
}
