package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.StreamGen
import repro.util.Stats

class InQuestSpec extends AnyFunSuite {

  private val ds = StreamGen.videoLike("iq", 20000, targetP = 0.5, targetR = 0.9, seed = 21)
  private val query = QueryConfig(AggFunc.Avg, usePredicate = true,
    segmentLength = 4000, budgetPerSegment = 100)

  test("run produces one estimate per segment plus a final estimate") {
    val r = new InQuest().run(ds, query, trialSeed = 1)
    assert(r.perSegment.length == 5)
    assert(r.perSegment.forall(e => !e.isNaN && !e.isInfinite))
    assert(!r.finalEstimate.isNaN)
  }

  test("oracle budget is respected in every segment (hard invariant)") {
    // OracleModel throws on violation; totals must be <= N·T.
    (1L to 20L).foreach { seed =>
      val r = new InQuest().run(ds, query, seed)
      assert(r.oracleCalls <= 5L * query.budgetPerSegment)
      assert(r.oracleCalls >= 5L * query.budgetPerSegment - 25,
        s"suspiciously few oracle calls: ${r.oracleCalls}")
    }
  }

  test("runs are deterministic in the trial seed") {
    val a = new InQuest().run(ds, query, 7)
    val b = new InQuest().run(ds, query, 7)
    assert(a.perSegment.toSeq == b.perSegment.toSeq)
    assert(a.finalEstimate == b.finalEstimate)
  }

  test("different trial seeds give different samples") {
    val a = new InQuest().run(ds, query, 7)
    val b = new InQuest().run(ds, query, 8)
    assert(a.perSegment.toSeq != b.perSegment.toSeq)
  }

  test("trace exposes K strata boundaries and counts per post-pilot segment") {
    val steps = new InQuest(InQuestParams(k = 3)).prepareTraced(ds, query)(1).steps
    assert(steps.size == 5)
    steps.foreach(s => assert(s.boundaries.length == 2 && s.rawAllocation.length == 3))
    assert(steps.head.cells.size == 1) // pilot is a single stratum
    steps.tail.foreach { s =>
      assert(s.cells.size == 3)
      assert(s.cells.map(_.nSampled).sum == query.budgetPerSegment)
    }
  }

  test("steps: t is the position, boundaries are S_1 then Ŝ_t, post-pilot counts sum to N") {
    val params = InQuestParams(k = 3)
    val steps = new InQuest(params).prepareTraced(ds, query)(1).steps
    val own = ds.segments(query.segmentLength).map(seg => Stratification.quantileStrata(seg.map(ds.proxy), 3))
    assert(steps.size == own.size)
    steps.zipWithIndex.foreach { case (s, t) => assert(s.t == t) }
    assert(steps.head.boundaries.toSeq == own.head.toSeq)
    steps.tail.foreach { s =>
      val smoothed = own.take(s.t).foldLeft(Stats.Ewma(params.alpha, params.k - 1))(_ add _)
      assert(s.boundaries.toSeq == smoothed.value.toSeq, s"segment ${s.t}")
      assert(s.cells.map(_.nSampled).sum == query.budgetPerSegment, s"segment ${s.t}")
    }
  }

  test("Planner.add: shuffled keys give equal boundaries and equal, ascending strata in every segment") {
    def plans(shuffle: Boolean): Seq[InQuest.SegmentPlan] = {
      val planner = new InQuest.Planner(InQuestParams())
      ds.segments(query.segmentLength).map { seg =>
        val (idx, proxy) = ds.keys(seg)
        val order = if (shuffle) new scala.util.Random(seg.start).shuffle(idx.indices.toVector) else idx.indices
        planner.add(order.map(idx).toArray, order.map(proxy).toArray)(identity)
      }
    }
    val (inOrder, shuffled) = (plans(shuffle = false), plans(shuffle = true))
    assert(shuffled.size == 5)
    inOrder.zip(shuffled).foreach { case (a, b) =>
      assert(a.boundaries.toSeq == b.boundaries.toSeq, s"segment ${a.t}")
      assert(a.strata.map(_.toSeq).toSeq == b.strata.map(_.toSeq).toSeq, s"segment ${a.t}")
      b.strata.foreach(s => assert(s.toSeq == s.sorted.toSeq, s"segment ${b.t}: a stratum is not ascending"))
    }
  }

  test("defensive floor guarantees samples in every stratum after the pilot") {
    val steps = new InQuest(InQuestParams(defensiveFraction = 0.1)).prepareTraced(ds, query)(3).steps
    steps.tail.map(_.cells.map(_.nSampled)).foreach { c =>
      // N1 = 10, K = 3 → at least 3 per stratum
      assert(c.forall(_ >= 3), s"stratum starved: $c")
    }
  }

  test("estimates are approximately unbiased over trials") {
    val truths = ds.truthPerSegment(query.segmentLength, usePredicate = true)
    val trials = (1 to 120).map(s => new InQuest().run(ds, query, s.toLong))
    (0 until 5).foreach { t =>
      val meanEst = Stats.mean(trials.map(_.perSegment(t)))
      assert(math.abs(meanEst - truths(t)) < 0.18,
        s"segment $t: mean estimate $meanEst vs truth ${truths(t)}")
    }
  }

  test("per-trial error shrinks with the oracle budget (Theorem 2 direction)") {
    val truths = ds.truthPerSegment(query.segmentLength, usePredicate = true)
    def rmseAt(budget: Int): Double = {
      val errs = (1 to 80).flatMap { s =>
        val r = new InQuest().run(ds, query.copy(budgetPerSegment = budget), s.toLong)
        r.perSegment.zip(truths).map { case (e, t) => e - t }
      }
      Stats.rmse(errs)
    }
    val lo = rmseAt(40); val hi = rmseAt(400)
    assert(hi < lo * 0.75, s"rmse(400)=$hi not clearly below rmse(40)=$lo")
  }

  test("no-predicate queries treat every record as matching") {
    val steps = new InQuest().prepareTraced(ds, query.copy(usePredicate = false))(5).steps
    steps.flatMap(_.cells).foreach(c => assert(c.nPos == c.nSampled))
  }

  test("K=1 degenerates to per-segment uniform sampling") {
    val r = new InQuest(InQuestParams(k = 1)).run(ds, query, 11)
    assert(r.perSegment.length == 5)
    val truths = ds.truthPerSegment(query.segmentLength, usePredicate = true)
    r.perSegment.zip(truths).foreach { case (e, t) => assert(math.abs(e - t) < 1.5) }
  }

  test("alpha=0 and alpha=1 both run to completion (EWMA extremes)") {
    Seq(0.0, 1.0).foreach { a =>
      val r = new InQuest(InQuestParams(alpha = a)).run(ds, query, 13)
      assert(r.perSegment.forall(!_.isNaN))
    }
  }

  test("budget larger than the segment samples the whole segment") {
    val small = StreamGen.videoLike("small", 500, 0.5, 0.9, seed = 2)
    val q = QueryConfig(AggFunc.Avg, usePredicate = false, segmentLength = 100, budgetPerSegment = 100)
    val r = new InQuest().run(small, q, 1)
    val truths = small.truthPerSegment(100, usePredicate = false)
    // full coverage → exact per-segment answers
    r.perSegment.zip(truths).foreach { case (e, t) => assert(math.abs(e - t) < 1e-9) }
  }

  test("final estimate converges to the overall truth with a large budget") {
    val truth = ds.truthOverall(usePredicate = true)
    val finals = (1 to 40).map(s =>
      new InQuest().run(ds, query.copy(budgetPerSegment = 800), s.toLong).finalEstimate)
    assert(math.abs(Stats.mean(finals) - truth) < 0.08,
      s"mean final ${Stats.mean(finals)} vs truth $truth")
  }

  test("SUM and COUNT aggregates track their ground truths") {
    val qSum = query.copy(agg = AggFunc.Sum, budgetPerSegment = 400)
    val qCnt = query.copy(agg = AggFunc.Count, budgetPerSegment = 400)
    val truthSum = ds.truthOverall(usePredicate = true, AggFunc.Sum)
    val truthCnt = ds.truthOverall(usePredicate = true, AggFunc.Count)
    val sums = (1 to 40).map(s => new InQuest().run(ds, qSum, s.toLong).finalEstimate)
    val cnts = (1 to 40).map(s => new InQuest().run(ds, qCnt, s.toLong).finalEstimate)
    assert(math.abs(Stats.mean(sums) - truthSum) / truthSum < 0.05)
    assert(math.abs(Stats.mean(cnts) - truthCnt) / truthCnt < 0.05)
  }
}
