package repro.spark

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{StreamingQuery, Trigger}
import repro.core.{Community, ReorderStats, Spade, StreamReplay, Suspiciousness, Tx}

import scala.collection.mutable

/** Structured-Streaming front end for Spade: every micro-batch of
  * transactions is sorted by arrival time and folded into the driver-held
  * evolving-graph state with one Algorithm-2 batch reorder, then the updated
  * fraudulent community is re-detected — the paper's Fig. 4 workflow with
  * Spark micro-batches playing the role of the update stream `ΔG^τ`.
  *
  * The graph state is driver-side on purpose: the peeling-sequence merge is
  * a sequential priority-queue algorithm (that sequentiality is the paper's
  * contribution), while Spark owns ingestion, ordering and the surrounding
  * dataflow. `foreachBatch` delivers in-order micro-batches on a single
  * stream but only at-least-once: on recovery it may replay a batch that was
  * already folded in. `processBatch` therefore skips any `batchId` at or
  * below the last one it committed, so each batch's edges are inserted once,
  * which is the consistency the evolving-graph model of §2.1 (ordered edge
  * insertions) requires. A malformed transaction (see `Spade.isValid`) is
  * skipped and counted in its batch's report instead of stopping the query.
  */
final class StreamingSpade(metric: Suspiciousness, spotBeta: Double = StreamReplay.DefaultSpotBeta) {

  val spade = new Spade(metric)

  /** One entry per processed micro-batch; `rejected` invalid rows were skipped. */
  final case class BatchReport(batchId: Long, edges: Int, community: Community,
                               newlySpotted: Array[Int], stats: ReorderStats, rejected: Int)

  private val reportsBuf = mutable.ArrayBuffer.empty[BatchReport]
  private val spotted = mutable.HashSet.empty[Int]
  private var lastBatchId = -1L

  /** Reports of all micro-batches processed so far (driver-side). */
  def reports: Seq[BatchReport] = reportsBuf.synchronized { reportsBuf.toVector }

  /** Vertices ever seen in a detected community. */
  def spottedVertices: Set[Int] = reportsBuf.synchronized { spotted.toSet }

  /** Bulk-load the initial graph before streaming starts. */
  def initialize(initial: Seq[Tx]): Community = spade.loadGraph(initial)

  /** Fold one already-collected micro-batch into the state. Exposed so the
    * offline replay and the streaming sink share one code path. A replayed
    * batch (`batchId` at or below the last committed one) leaves the state
    * as it is and gets an unrecorded report with no edges, nothing newly
    * spotted and zero reorder stats. Invalid transactions are skipped.
    */
  def processBatch(batchId: Long, txs: Array[Tx]): BatchReport = {
    if (batchId <= lastBatchId)
      return BatchReport(batchId, 0, spade.community, Array.empty, ReorderStats.zero, 0)
    val ordered = txs.filter(spade.isValid).sortBy(t => (t.ts, t.src, t.dst))
    val stats = spade.insertBatchEdges(ordered.toSeq)
    val community = spade.detect()
    val suspects = spade.detectSuspects(spotBeta)
    lastBatchId = batchId
    reportsBuf.synchronized {
      val fresh = suspects.members.filterNot(spotted.contains)
      fresh.foreach(spotted.add)
      val rep = BatchReport(batchId, ordered.length, community, fresh, stats, txs.length - ordered.length)
      reportsBuf += rep
      rep
    }
  }

  /** Attach to a streaming DataFrame with columns
    * (src, dst, amount, ts, fraudId) and start the query. The caller owns
    * the query lifecycle (`processAllAvailable`, `stop`).
    */
  def start(stream: DataFrame, queryName: String = "spade-stream"): StreamingQuery = {
    stream
      .select(col("src").cast("int"), col("dst").cast("int"),
              col("amount").cast("double"), col("ts").cast("double"),
              col("fraudId").cast("int"))
      .writeStream
      .queryName(queryName)
      .trigger(Trigger.ProcessingTime(0L))
      .outputMode("append")
      .foreachBatch { (df: DataFrame, batchId: Long) =>
        val txs = df.collect().map { r: Row =>
          Tx(r.getInt(0), r.getInt(1), r.getDouble(2), r.getDouble(3), r.getInt(4))
        }
        if (txs.nonEmpty) { processBatch(batchId, txs); () }
      }
      .start()
  }
}
