package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Appendix C.2 — dense-subgraph enumeration. */
class EnumerationSpec extends AnyFunSuite {
  import TestUtil._

  private def triangle(base: Int, w: Double): Seq[Tx] =
    Seq(Tx(base, base + 1, w), Tx(base + 1, base + 2, w), Tx(base + 2, base, w))

  test("two separated blocks are enumerated densest-first") {
    val spade = loadedSpade(Suspiciousness.DW, triangle(0, 5.0) ++ triangle(10, 2.0))
    val cs = Enumeration.enumerate(spade.graph, maxCommunities = 5)
    assert(cs.length == 2)
    assert(cs(0).memberSet == Set(0, 1, 2) && math.abs(cs(0).density - 5.0) < 1e-9)
    assert(cs(1).memberSet == Set(10, 11, 12) && math.abs(cs(1).density - 2.0) < 1e-9)
  }

  test("maxCommunities caps the enumeration") {
    val spade = loadedSpade(Suspiciousness.DW,
      triangle(0, 5.0) ++ triangle(10, 4.0) ++ triangle(20, 3.0))
    val cs = Enumeration.enumerate(spade.graph, maxCommunities = 2)
    assert(cs.length == 2)
    assert(cs.map(_.density).forall(_ >= 4.0 - 1e-9))
  }

  test("minDensity stops the enumeration") {
    val spade = loadedSpade(Suspiciousness.DW, triangle(0, 5.0) ++ triangle(10, 0.5))
    val cs = Enumeration.enumerate(spade.graph, maxCommunities = 5, minDensity = 1.0)
    assert(cs.length == 1 && cs.head.memberSet == Set(0, 1, 2))
  }

  test("enumeration leaves the input graph untouched") {
    val spade = loadedSpade(Suspiciousness.DW, triangle(0, 5.0) ++ triangle(10, 2.0))
    val e0 = spade.graph.numEdges; val f0 = spade.graph.totalF
    Enumeration.enumerate(spade.graph)
    assert(spade.graph.numEdges == e0 && spade.graph.totalF == f0)
  }

  test("communities are vertex-disjoint") {
    val spade = loadedSpade(Suspiciousness.DW, randomTxs(30, 150, 23))
    val cs = Enumeration.enumerate(spade.graph, maxCommunities = 8)
    val all = cs.flatMap(_.members)
    assert(all.distinct.length == all.length, "communities overlap")
  }

  test("an edgeless graph enumerates nothing") {
    val g = new DynGraph(); g.ensureVertex(5)
    assert(Enumeration.enumerate(g).isEmpty)
  }

  test("equal-density blocks connected weakly come out as one then the rest (Fig. 14)") {
    // Two triangles of density 3 joined by a light bridge: the first detect
    // returns both (ties prefer the larger set), so one enumeration step
    // covers the union — the paper's 'multiple fraud instances' case.
    val txs = triangle(0, 3.0) ++ triangle(10, 3.0) :+ Tx(2, 10, 0.1)
    val spade = loadedSpade(Suspiciousness.DW, txs)
    val cs = Enumeration.enumerate(spade.graph, maxCommunities = 5, minDensity = 1.0)
    assert(cs.nonEmpty)
    assert(cs.head.memberSet.intersect(Set(0, 1, 2)).nonEmpty)
    assert(cs.map(_.memberSet).reduce(_ ++ _).intersect(Set(10, 11, 12)).nonEmpty)
  }

  private def assertMatchesReference(g: DynGraph, maxCommunities: Int, minDensity: Double,
                                     clue: String): Seq[Community] = {
    val got = Enumeration.enumerate(g, maxCommunities, minDensity)
    val want = referenceEnumerate(g, maxCommunities, minDensity)
    assert(got.length == want.length, s"$clue: ${got.length} vs ${want.length} communities")
    got.zip(want).zipWithIndex.foreach { case ((c, r), i) =>
      assert(c.memberSet == r.memberSet, s"$clue: members of community $i differ")
      assert(math.abs(c.density - r.density) < 1e-9, s"$clue: density of community $i ${c.density} vs ${r.density}")
    }
    got
  }

  test("differential: masked enumeration equals a static peel of the rebuilt residual graph") {
    Suspiciousness.paperMetrics.foreach { m =>
      val rounds = (1L to 12L).map { seed =>
        val g = loadedSpade(m, randomTxs(60, 100, seed)).graph
        val cs = assertMatchesReference(g, maxCommunities = 16, minDensity = 1e-9, s"${m.name} seed $seed")
        assertMatchesReference(g, maxCommunities = 2, minDensity = 1e-9, s"${m.name} seed $seed cap")
        assertMatchesReference(g, maxCommunities = 16, minDensity = cs.head.density * 0.7,
          s"${m.name} seed $seed threshold")
        cs.length
      }
      assert(rounds.sum >= 2 * rounds.length, s"${m.name}: communities per seed $rounds")
    }
  }

  test("FD with vertex priors: isolated prior-weighted vertices left over end the enumeration") {
    // Vertices 3 and 4 are created with prior 0.1 by the edge (0, 4); vertex
    // 3 stays isolated. After {0, 1, 2, 4} is removed only vertex 3 is left:
    // its density 0.1 clears minDensity, but no edge is left, so it is not
    // reported.
    val fd = new Suspiciousness.Fraudar(prior = v => if (v >= 3) 0.1 else 0.0)
    val spade = loadedSpade(fd, triangle(0, 1.0) :+ Tx(0, 4, 1.0))
    assert(spade.graph.vertexWeight(3) == 0.1 && spade.graph.degree(3) == 0)
    val cs = assertMatchesReference(spade.graph, maxCommunities = 5, minDensity = 1e-9, "FD prior")
    assert(cs.length == 1 && cs.head.memberSet == Set(0, 1, 2, 4))
  }
}
