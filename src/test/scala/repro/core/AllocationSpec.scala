package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Checks.forAllSampled

class AllocationSpec extends AnyFunSuite {

  private def cell(sizeD: Long, fs: Seq[Double], nonMatching: Int = 0): StratumStats =
    StratumStats.fromSamples(sizeD,
      fs.map(f => (f, true)) ++ Seq.fill(nonMatching)((0.0, false)))

  test("rawAllocation matches the Algorithm 2 formula by hand") {
    // stratum 0: p̂=1, σ̂=std(1,3)=√2, |D|=100; stratum 1: p̂=1, σ̂=std(2,6)=√8, |D|=100
    val a = Allocation.rawAllocation(Seq(cell(100, Seq(1, 3)), cell(100, Seq(2, 6))))
    // ŵσ̂ ∝ (√1·0.5·√2, √1·0.5·√8) → (1, 2)/3
    assert(math.abs(a(0) - 1.0 / 3) < 1e-12)
    assert(math.abs(a(1) - 2.0 / 3) < 1e-12)
  }

  test("rawAllocation weights by sqrt of the predicate positive rate") {
    // equal σ, equal sizes, p̂ = 1 vs 0.25 → weights 1 : 0.5
    val a = Allocation.rawAllocation(Seq(
      cell(100, Seq(1.0, 3.0)),
      cell(100, Seq(1.0, 3.0), nonMatching = 6)))
    assert(math.abs(a(0) / a(1) - 2.0) < 1e-9)
  }

  test("rawAllocation weights by stratum size") {
    val a = Allocation.rawAllocation(Seq(cell(300, Seq(1, 3)), cell(100, Seq(1, 3))))
    assert(math.abs(a(0) / a(1) - 3.0) < 1e-9)
  }

  test("rawAllocation falls back to uniform when all signals vanish") {
    val a = Allocation.rawAllocation(Seq(cell(100, Seq(5.0)), cell(100, Seq(5.0))))
    assert(a.toSeq == Seq(0.5, 0.5)) // single samples → σ̂ = 0 everywhere
  }

  test("rawAllocation always lies on the simplex") {
    val gen = Gen.listOfN(3, Gen.zip(Gen.chooseNum(1L, 1000L),
      Gen.listOf(Gen.chooseNum(0.0, 10.0)).map(_.take(20))))
    forAllSampled(gen, n = 200) { cells =>
      val a = Allocation.rawAllocation(cells.map { case (d, fs) => cell(d, fs) })
      assert(math.abs(a.sum - 1.0) < 1e-9)
      assert(a.forall(x => x >= 0 && x <= 1 + 1e-12))
    }
  }

  test("smooth renormalizes and respects alpha extremes") {
    val h = Seq(Array(1.0, 0.0), Array(0.0, 1.0))
    assert(Allocation.smooth(h, 1.0).toSeq == Seq(0.0, 1.0))
    val mean = Allocation.smooth(h, 0.0)
    assert(math.abs(mean(0) - 0.5) < 1e-12 && math.abs(mean(1) - 0.5) < 1e-12)
    assertThrows[IllegalArgumentException](Allocation.smooth(Seq.empty, 0.5))
  }

  test("sampleCounts adds the defensive floor and sums to the budget") {
    val counts = Allocation.sampleCounts(Array(1.0, 0.0, 0.0), n1 = 30, n2 = 70)
    assert(counts.sum == 100)
    assert(counts(0) == 80)
    assert(counts(1) == 10 && counts(2) == 10) // defensive floor N1/K
  }

  test("sampleCounts with zero dynamic budget splits N1 uniformly") {
    val counts = Allocation.sampleCounts(Array(0.9, 0.05, 0.05), n1 = 9, n2 = 0)
    assert(counts.toSeq == Seq(3, 3, 3))
  }

  test("sampleCounts never starves a stratum when n1 >= K") {
    forAllSampled(Gen.listOfN(3, Gen.chooseNum(0.0, 1.0)), n = 200) { raw =>
      val s = raw.sum
      val aHat = if (s == 0) Array(1.0 / 3, 1.0 / 3, 1.0 / 3) else raw.map(_ / s).toArray
      val counts = Allocation.sampleCounts(aHat, n1 = 6, n2 = 54)
      assert(counts.sum == 60)
      assert(counts.forall(_ >= 1), s"starved stratum in ${counts.toSeq}")
    }
  }

  test("capToSizes leaves feasible counts untouched") {
    assert(Allocation.capToSizes(Array(10, 20, 30), Array(100L, 100L, 100L)).toSeq == Seq(10, 20, 30))
  }

  test("capToSizes spills surplus to strata with capacity") {
    val out = Allocation.capToSizes(Array(90, 5, 5), Array(10L, 100L, 100L))
    assert(out.sum == 100)
    assert(out(0) == 10)
    assert(out(1) <= 100 && out(2) <= 100)
  }

  test("capToSizes caps at the total population when infeasible") {
    val out = Allocation.capToSizes(Array(50, 50), Array(10L, 20L))
    assert(out.toSeq == Seq(10, 20))
  }

  test("capToSizes never exceeds any stratum population") {
    forAllSampled(Gen.listOfN(4, Gen.zip(Gen.chooseNum(0, 100), Gen.chooseNum(0L, 100L))), n = 200) { ps =>
      val counts = ps.map(_._1).toArray
      val sizes = ps.map(_._2).toArray
      val out = Allocation.capToSizes(counts, sizes)
      out.indices.foreach(i => assert(out(i) <= sizes(i)))
      assert(out.sum == math.min(counts.sum.toLong, sizes.sum))
    }
  }

  test("splitBudget applies the defensive fraction with rounding") {
    assert(Allocation.splitBudget(100, 0.1) == ((10, 90)))
    assert(Allocation.splitBudget(105, 0.1) == ((11, 94)))
    assert(Allocation.splitBudget(100, 0.0) == ((0, 100)))
    assert(Allocation.splitBudget(100, 1.0) == ((100, 0)))
  }

  test("optimal allocation formula of Proposition 1") {
    val a = Allocation.optimal(Array(100L, 200L), Array(0.25, 1.0), Array(2.0, 1.0))
    // raw = (100·0.5·2, 200·1·1) = (100, 200) → (1/3, 2/3)
    assert(math.abs(a(0) - 1.0 / 3) < 1e-12)
    assert(math.abs(a(1) - 2.0 / 3) < 1e-12)
  }

  test("optimal allocation with all-zero signal is uniform") {
    assert(Allocation.optimal(Array(1L, 1L), Array(0.0, 0.0), Array(1.0, 1.0)).toSeq == Seq(0.5, 0.5))
  }
}
