package perfbench

import java.io.{BufferedWriter, File, FileWriter}

/** Growable primitive columns, so recording a call costs a few array stores
  * and no boxing inside the timed loop.
  */
private[perfbench] final class LongCol {
  private var a = new Array[Long](1024)
  var size = 0
  def +=(x: Long): Unit = {
    if (size == a.length) a = java.util.Arrays.copyOf(a, size * 2)
    a(size) = x; size += 1
  }
  def apply(i: Int): Long = a(i)
  def update(i: Int, x: Long): Unit = a(i) = x
}

/** One row per server call: the edges the call completes, its kind, its
  * service time and the reorder counters it returned. Written as TSV for
  * `perfbench/metrics.py`, which derives every queueing figure from it.
  */
final class CallLog {
  private val pass, traced, first, last, kind, serviceNs = new LongCol
  private val emitted, recovered, edgesTouched, scanSpan, newVerts, suspects = new LongCol

  def size: Int = pass.size

  /** `st` is null when the call did not reorder; `suspectCount` is the size
    * of the suspect set the call published, or -1 when it published none.
    */
  def add(p: Int, tr: Boolean, firstEdge: Int, lastEdge: Int, k: Int, ns: Long,
          st: repro.core.ReorderStats, suspectCount: Int): Unit = {
    pass += p; traced += (if (tr) 1 else 0); first += firstEdge; last += lastEdge
    kind += k; serviceNs += ns; suspects += suspectCount
    if (st == null) {
      emitted += 0; recovered += 0; edgesTouched += 0; scanSpan += 0; newVerts += 0
    } else {
      emitted += st.emitted; recovered += st.recovered; edgesTouched += st.edgesTouched
      scanSpan += (st.scanTo - st.scanFrom); newVerts += st.newVertices
    }
  }

  def write(f: File): Unit = {
    val w = new BufferedWriter(new FileWriter(f))
    try {
      w.write("pass\ttraced\tfirst\tlast\tkind\tservice_ns\temitted\trecovered\tedges_touched\tscan_span\tnew_vertices\tsuspects\n")
      var i = 0
      while (i < size) {
        w.write(s"${pass(i)}\t${traced(i)}\t${first(i)}\t${last(i)}\t${CallKind.names(kind(i).toInt)}" +
          s"\t${serviceNs(i)}\t${emitted(i)}\t${recovered(i)}\t${edgesTouched(i)}\t${scanSpan(i)}\t${newVerts(i)}\t${suspects(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}

/** What a server call did. `Benign` is a grouped insert that only buffered
  * the edge; every other kind reordered the sequence.
  */
object CallKind {
  val Single = 0
  val Benign = 1
  val Flush = 2
  val Batch = 3
  val names: Array[String] = Array("single", "benign", "flush", "batch")
}

/** In-memory spans (name, start, end, parent, pass), written out once at
  * the end of the run. Set-up and gate spans have pass -1, a state reset has
  * its pass number, and per-call spans are recorded only in traced passes.
  */
final class Tracer {
  private val names = scala.collection.mutable.ArrayBuffer.empty[String]
  private val nameIds = scala.collection.mutable.HashMap.empty[String, Int]
  private val nameOf, parentOf, passOf = new LongCol
  private val startNs, endNs = new LongCol
  private val origin = System.nanoTime()

  /** Open a span; returns its id. `parent` is -1 for a root span. */
  def begin(name: String, parent: Int, pass: Int): Int = {
    nameOf += nameId(name); parentOf += parent; passOf += pass
    startNs += System.nanoTime(); endNs += -1L
    nameOf.size - 1
  }

  def end(id: Int): Unit = endNs(id) = System.nanoTime()

  def durationNs(id: Int): Long = endNs(id) - startNs(id)

  /** Name a span after the fact, once the call revealed what it did. */
  def rename(id: Int, name: String): Unit = nameOf(id) = nameId(name)

  private def nameId(name: String): Int =
    nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })

  /** Time `body` as a span. */
  def span[A](name: String, parent: Int, pass: Int)(body: => A): A = {
    val id = begin(name, parent, pass)
    try body finally end(id)
  }

  def write(f: File): Unit = {
    val w = new BufferedWriter(new FileWriter(f))
    try {
      w.write("id\tparent\tpass\tname\tstart_ns\tend_ns\n")
      var i = 0
      while (i < nameOf.size) {
        w.write(s"$i\t${parentOf(i)}\t${passOf(i)}\t${names(nameOf(i).toInt)}" +
          s"\t${startNs(i) - origin}\t${endNs(i) - origin}\n")
        i += 1
      }
    } finally w.close()
  }
}
