package repro.core

/** Dense-subgraph enumeration (Appendix C.2): peel, report the densest
  * community, remove it (its vertices and all incident edges), re-peel the
  * remainder, and repeat until the density drops below a threshold, no edge
  * is left among the remaining vertices, or the requested number of
  * communities is found.
  *
  * Removal is a mask over the caller's graph, which is never mutated — the
  * fraud moderators' offline enumeration must not disturb the evolving
  * state. Each round re-peels the remaining vertices with Algorithm 1's loop
  * (`StaticPeeling.drain`), seeded with their weights against the remaining
  * set: exactly a static peel of the residual graph, without building it.
  * The paper notes the re-peel could reuse the deletion-incremental
  * machinery; enumeration appears in no timed table, so the full re-peel
  * stays.
  */
object Enumeration {

  /** Enumerate up to `maxCommunities` disjoint dense communities with
    * density >= `minDensity`, densest first.
    */
  def enumerate(graph: DynGraph, maxCommunities: Int = 16, minDensity: Double = 1e-9): Seq[Community] = {
    require(maxCommunities > 0, "maxCommunities must be positive")
    val n = graph.numVertices
    val removed = new Array[Boolean](n)
    val heap = new IndexedMinHeap(n)
    val out = Seq.newBuilder[Community]
    var found = 0
    var done = false
    while (!done && found < maxCommunities) {
      var liveEdgeEnds = 0L
      var u = 0
      while (u < n) {
        if (!removed(u)) {
          var w = graph.vertexWeight(u)
          graph.foreachIncident(u) { (x, c) => if (!removed(x)) { w += c; liveEdgeEnds += 1 } }
          heap.insert(u, w)
        }
        u += 1
      }
      if (liveEdgeEnds == 0) done = true
      else {
        val seq = new Array[Int](heap.size)
        val wts = new Array[Double](heap.size)
        var i = 0
        StaticPeeling.drain(graph, heap) { (v, w) => seq(i) = v; wts(i) = w; i += 1 }
        val c = PeelOrder.fromArrays(seq, wts, n - 1).detect()
        if (c.density < minDensity || c.size == 0) done = true
        else {
          out += c
          c.members.foreach(v => removed(v) = true)
          found += 1
        }
      }
    }
    out.result()
  }
}
