package repro.core

/** The fraudulent community returned by `Detect`: the densest prefix-set of
  * the peeling sequence.
  *
  * @param density  `g(S) = f(S)/|S|` of the community
  * @param members  the community's vertices (suffix of the peeling order)
  */
final case class Community(density: Double, members: Array[Int]) {
  lazy val memberSet: Set[Int] = members.toSet
  def size: Int = members.length
  override def toString = f"Community(g=$density%.4f, |S|=${members.length})"
}

/** The peeling sequence `O` plus per-step peel weights `Δ` (the `_seq` /
  * `_weight` vectors of Listing 1), stored with *head room* so that new
  * vertices can be prepended in O(1) (§4.1 "vertex insertion": a fresh vertex
  * goes to the head of the sequence).
  *
  * Entries live in `seq(start until end)`; `posOf(v)` is the **absolute**
  * array index of `v`, so positions stay valid when `start` moves left.
  * Incremental reordering rewrites only the affected window `[a, b)` of the
  * arrays — the whole point of the paper is that this window is tiny.
  */
final class PeelOrder private (
    private var seqArr: Array[Int],
    private var wtArr: Array[Double],
    private var posArr: Array[Int],
    private var startIdx: Int,
    private var endIdx: Int,
) {

  /** First (inclusive) absolute index of the sequence. */
  def start: Int = startIdx

  /** One past the last absolute index of the sequence. */
  def end: Int = endIdx

  /** Number of vertices in the order. */
  def length: Int = endIdx - startIdx

  /** Vertex peeled at absolute index `p`. */
  def vertexAt(p: Int): Int = { checkIdx(p); seqArr(p) }

  /** Peel-time weight `Δ` of the vertex at absolute index `p`. */
  def weightAt(p: Int): Double = { checkIdx(p); wtArr(p) }

  /** Absolute index of vertex `v` in the order. */
  def posOf(v: Int): Int = posArr(v)

  /** True iff vertex `v` is part of the order. */
  def containsVertex(v: Int): Boolean = v >= 0 && v < posArr.length && posArr(v) >= 0

  @inline private def checkIdx(p: Int): Unit =
    require(p >= startIdx && p < endIdx, s"index $p outside [$startIdx, $endIdx)")

  /** Overwrite the entry at absolute index `p` (used by window write-back). */
  def set(p: Int, v: Int, w: Double): Unit = {
    checkIdx(p)
    seqArr(p) = v
    wtArr(p) = w
    posArr(v) = p
  }

  /** Grow the vertex-id space of `posOf` (new ids map to -1). */
  def ensureVertex(id: Int): Unit = {
    if (id >= posArr.length) {
      val newCap = math.max(posArr.length * 2, id + 1)
      val np = new Array[Int](newCap)
      java.util.Arrays.fill(np, -1)
      System.arraycopy(posArr, 0, np, 0, posArr.length)
      posArr = np
    }
  }

  /** Prepend a brand-new vertex at the head of the order with weight `w`
    * (its `vsusp`). Amortized O(1); reallocates with fresh head room when the
    * head is full.
    */
  def prepend(v: Int, w: Double): Unit = {
    ensureVertex(v)
    require(posArr(v) < 0, s"vertex $v already in the order")
    if (startIdx == 0) {
      val room = math.max(1024, (endIdx - startIdx) / 2 + 1)
      val newLen = room + seqArr.length
      val ns = new Array[Int](newLen)
      val nw = new Array[Double](newLen)
      System.arraycopy(seqArr, 0, ns, room, endIdx)
      System.arraycopy(wtArr, 0, nw, room, endIdx)
      seqArr = ns; wtArr = nw
      var p = room
      while (p < room + endIdx) { posArr(ns(p)) = p; p += 1 }
      startIdx += room; endIdx += room
    }
    startIdx -= 1
    seqArr(startIdx) = v
    wtArr(startIdx) = w
    posArr(v) = startIdx
  }

  /** The peeling order as vertices, head first. */
  def toVertexSeq: IndexedSeq[Int] =
    (startIdx until endIdx).map(seqArr)

  /** The peel weights, aligned with `toVertexSeq`. */
  def toWeightSeq: IndexedSeq[Double] =
    (startIdx until endIdx).map(wtArr)

  /** `Detect()` of Listing 1: the argmax-density prefix-set.
    *
    * `f(S_i) = Σ_{j>i} Δ_j` (the peel weights telescope the metric), so a
    * single backward pass over the weight vector finds
    * `arg max_i g(S_i) = f(S_i)/|S_i|`. Ties prefer the *larger* set, so a
    * union of equally dense fraud blocks is returned whole (Appendix B,
    * Fig. 14). O(length).
    */
  def detect(): Community = {
    val from = densestSuffix()
    Community(suffixDensity, java.util.Arrays.copyOfRange(seqArr, from, endIdx))
  }

  /** Fig.-14 semantics for *spotting*: the largest suffix-set whose density
    * is still within `beta` of the best — equally dense fraud instances
    * "commonly form a dense subgraph" and are all returned, without paying
    * for a full enumeration per update. Two O(length) passes.
    */
  def detectThreshold(beta: Double): Community = {
    require(beta > 0 && beta <= 1, s"beta must be in (0, 1], got $beta")
    densestSuffix()
    val best = suffixDensity
    val cut = beta * best
    var suffix = 0.0
    var size = 0.0
    var from = endIdx
    var p = endIdx - 1
    while (p >= startIdx) {
      suffix += wtArr(p)
      size += 1.0
      val dens = suffix / size
      if (dens >= cut - 1e-12) from = p
      p -= 1
    }
    Community(best, java.util.Arrays.copyOfRange(seqArr, from, endIdx))
  }

  /** Density of the suffix the last `densestSuffix()` found — a field rather
    * than a tuple so the per-update pass allocates nothing.
    */
  private var suffixDensity = 0.0

  /** The one backward pass behind both detectors: returns the start of the
    * densest suffix (the largest one at ties; `end` when the order is empty)
    * and leaves its density (0 when empty) in `suffixDensity`.
    *
    * This pass and `detectThreshold`'s threshold pass count the suffix size
    * in a `Double` (exact below 2^53) instead of converting `endIdx - p` on
    * every step: with that conversion in the loop, each pass ran 3-5x slower
    * under HotSpot C2 (JDK 17, x86-64).
    */
  private def densestSuffix(): Int = {
    var suffix = 0.0
    var size = 0.0
    var best = Double.NegativeInfinity
    var from = endIdx
    var p = endIdx - 1
    while (p >= startIdx) {
      suffix += wtArr(p)
      size += 1.0
      val dens = suffix / size
      if (dens >= best) { best = dens; from = p }
      p -= 1
    }
    suffixDensity = if (from == endIdx) 0.0 else best
    from
  }
}

object PeelOrder {

  /** Build an order from parallel vertex/weight arrays (head first), leaving
    * head room for future prepends. `maxVertexId` sizes the position index.
    */
  def fromArrays(vs: Array[Int], ws: Array[Double], maxVertexId: Int): PeelOrder = {
    require(vs.length == ws.length, "vertex/weight arrays must align")
    val room = math.max(1024, vs.length / 4)
    val seq = new Array[Int](room + vs.length)
    val wt  = new Array[Double](room + vs.length)
    System.arraycopy(vs, 0, seq, room, vs.length)
    System.arraycopy(ws, 0, wt, room, vs.length)
    val pos = new Array[Int](math.max(1, maxVertexId + 1))
    java.util.Arrays.fill(pos, -1)
    var i = 0
    while (i < vs.length) { pos(vs(i)) = room + i; i += 1 }
    new PeelOrder(seq, wt, pos, room, room + vs.length)
  }

  /** An empty order over an empty graph. */
  def empty: PeelOrder = fromArrays(Array.empty, Array.empty, -1 + 1)
}
