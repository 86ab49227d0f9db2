package repro.core

import java.lang.Double.doubleToLongBits
import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.data.StreamGen
import repro.testkit.{Checks, ReferenceInQuest}
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
    val steps = new InQuest(InQuestParams(k = 3)).prepareTraced(ds, query)(1)._1
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
    val steps = new InQuest(params).prepareTraced(ds, query)(1)._1
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
      val planner = new InQuest.Planner(InQuestParams(), query.segmentLength)
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

  test("Planner.add rejects bad keys, naming the smallest bad idx, and changes nothing") {
    // Three segments of L = 6 keys each, in ascending idx, with distinct proxies.
    val keyLen = 6
    val rng = new scala.util.Random(3)
    val cleanKeys = Seq.tabulate(3)(t =>
      (Array.tabulate(keyLen)(i => (keyLen * t + i).toLong), Array.fill(keyLen)(rng.nextDouble())))
    def planBits(p: InQuest.SegmentPlan) = (p.t, p.boundaries.toSeq.map(doubleToLongBits), p.strata.toSeq.map(_.toSeq))
    val clean = {
      val planner = new InQuest.Planner(InQuestParams(), keyLen)
      cleanKeys.map { case (idx, proxy) => planBits(planner.add(idx, proxy)(identity)) }
    }
    // Segment t's keys made bad, reversed so that the smallest bad idx is
    // not the first, and the message that names it.
    def bad(t: Int): Seq[(String, Array[Long], Array[Double], String)] = {
      val (idx, proxy) = cleanKeys(t)
      val (from, until) = (keyLen * t, keyLen * (t + 1))
      val window = s"lies outside segment $t's window [$from, $until)"
      val nonFinite = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).map { v =>
        (s"proxy $v", idx, proxy.indices.map(i => if (i == 2 || i == 4) v else proxy(i)).toArray,
          s"non-finite proxy $v at idx ${from + 2}")
      }
      // Each copy's proxy is the other end of the segment's range, so the
      // copies would land in different strata.
      val (lo, hi) = (proxy.min, proxy.max)
      val repeated = ("a repeated idx", idx ++ Array(idx(3), idx(1)),
        proxy ++ Array(if (proxy(3) == lo) hi else lo, if (proxy(1) == hi) lo else hi),
        s"idx ${from + 1} appears more than once in the segment")
      // Each window case moves some keys out and names the smallest moved.
      val outside = Seq(
        ("idxs below the window", Map(5 -> (from - 1L), 4 -> (from - 3L))),
        ("the idx just below the window", Map(0 -> (from - 1L))),
        ("the idx at the window's end", Map(5 -> until.toLong)),
        ("idxs above the window", Map(0 -> (until + 4L), 1 -> (until + 2L))),
      ).map { case (name, moved) =>
        (name, moved.foldLeft(idx) { case (a, (i, v)) => a.updated(i, v) }, proxy, s"idx ${moved.values.min} $window")
      }
      (nonFinite ++ (repeated +: outside)).map { case (name, i, p, msg) => (name, i.reverse, p.reverse, msg) }
    }
    Seq(0, 1, 2).foreach { t =>
      bad(t).foreach { case (name, idx, proxy, msg) =>
        val planner = new InQuest.Planner(InQuestParams(), keyLen)
        cleanKeys.take(t).foreach { case (i, p) => planner.add(i, p)(identity) }
        val e = intercept[IllegalArgumentException](planner.add(idx, proxy)(identity))
        assert(e.getMessage.contains(msg), s"segment $t, $name: ${e.getMessage}")
        val retried = cleanKeys.drop(t).map { case (i, p) => planBits(planner.add(i, p)(identity)) }
        assert(retried == clean.drop(t), s"segment $t, $name: the retry planned other bits")
      }
    }
  }

  test("defensive floor guarantees samples in every stratum after the pilot") {
    val steps = new InQuest(InQuestParams(defensiveFraction = 0.1)).prepareTraced(ds, query)(3)._1
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
    val steps = new InQuest().prepareTraced(ds, query.copy(usePredicate = false))(5)._1
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

  /** The session's answer refolded from its steps: each step's cells
    * estimated, then every cell as one `Vector`, then their samples summed.
    */
  private def refold(steps: Seq[InQuest.Step], agg: AggFunc): RunResult = {
    val cells = steps.toVector.map(_.cells)
    RunResult(cells.map(Estimator.estimate(_, agg)).toArray,
      Estimator.estimate(cells.flatten, agg), cells.flatten.map(_.nSampled.toLong).sum)
  }

  private def bits(r: RunResult): (Seq[Long], Long, Long) =
    (r.perSegment.toSeq.map(doubleToLongBits), doubleToLongBits(r.finalEstimate), r.oracleCalls)

  /** One segment of `len` records per kind: 0 has non-integer statistics,
    * 1 no matching record under the predicate, 2 statistics of −0.0 only.
    */
  private def mixedStream(kinds: Seq[Int], len: Int, seed: Long): StreamDataset = {
    val rng = new scala.util.Random(seed)
    val n = kinds.size * len
    val proxy = Array.fill(n)(rng.nextDouble())
    val statistic = Array.tabulate(n)(i => if (kinds(i / len) == 2) -0.0 else 3.7 * rng.nextGaussian() + 0.1)
    val predicate = Array.tabulate(n)(i => kinds(i / len) != 1 && rng.nextDouble() < proxy(i))
    StreamDataset("mixed", proxy, statistic, predicate)
  }

  test("the session's running result equals the refold of its steps, bit for bit") {
    val q = QueryConfig(segmentLength = 200, budgetPerSegment = 30)
    val aggs = Seq(AggFunc.Avg, AggFunc.Sum, AggFunc.Count)
    val fixed = for {
      kinds <- Seq(Seq(0), Seq(1), Seq(2), Seq(2, 1, 0, 2)); agg <- aggs; pred <- Seq(true, false)
    } yield (kinds, agg, pred, 1L)
    val sampled = Checks.samples(Gen.zip(
      Gen.choose(1, 6).flatMap(Gen.listOfN(_, Gen.oneOf(0, 1, 2))), Gen.oneOf(aggs),
      Gen.oneOf(true, false), Gen.choose(0L, 1000L)), n = 60)
    (fixed ++ sampled).foreach { case (kinds, agg, pred, seed) =>
      val query = q.copy(agg = agg, usePredicate = pred)
      val (steps, result) = new InQuest().prepareTraced(mixedStream(kinds, q.segmentLength, seed), query)(seed)
      assert(bits(result) == bits(refold(steps, agg)), s"$kinds $agg predicate=$pred seed=$seed")
    }
    // A lone −0.0 cell keeps its sign in the cumulative estimate.
    val (_, lone) = new InQuest().prepareTraced(mixedStream(Seq(2), q.segmentLength, 1L), q.copy(agg = AggFunc.Sum))(1L)
    assert(doubleToLongBits(lone.finalEstimate) == doubleToLongBits(-0.0))
  }

  /** A small stream, its query and parameters, and a trial seed, covering
    * ties and constant proxies, K above the distinct proxies, budgets at
    * or above a stratum's and a segment's size, a short final segment,
    * α and the defensive fraction at 0 and 1, and every aggregate with and
    * without the predicate.
    */
  private val referenceCases: Gen[(StreamDataset, QueryConfig, InQuestParams, Long)] = for {
    l <- Gen.choose(1, 24)
    nSegments <- Gen.choose(1, 5)
    short <- Gen.choose(0, l - 1)
    proxyLevels <- Gen.oneOf(0, 1, 2, 3) // 0: continuous
    positiveRate <- Gen.oneOf(0.0, 0.3, 0.7, 1.0)
    integerStatistic <- Gen.oneOf(true, false)
    dataSeed <- Gen.choose(0L, 1L << 40)
    k <- Gen.choose(1, 6)
    budget <- Gen.choose(1, l + 4)
    alpha <- Gen.oneOf(0.0, 0.3, 0.8, 1.0)
    defensive <- Gen.oneOf(0.0, 0.1, 0.5, 1.0)
    agg <- Gen.oneOf(AggFunc.Avg, AggFunc.Sum, AggFunc.Count)
    usePredicate <- Gen.oneOf(true, false)
    trialSeed <- Gen.choose(0L, 1L << 40)
  } yield {
    val rng = new scala.util.Random(dataSeed)
    val n = math.max(1, nSegments * l - short)
    val proxy = Array.fill(n)(if (proxyLevels == 0) rng.nextDouble() else rng.nextInt(proxyLevels) / 4.0)
    val statistic = Array.fill(n)(if (integerStatistic) rng.nextInt(5).toDouble else 3.7 * rng.nextGaussian() + 0.1)
    val predicate = Array.fill(n)(rng.nextDouble() < positiveRate)
    (StreamDataset("ref", proxy, statistic, predicate), QueryConfig(agg, usePredicate, l, budget),
      InQuestParams(k, alpha, defensive), trialSeed)
  }

  test("prepareTraced equals the literal reference of Algorithms 1–2, bit for bit") {
    def cellBits(c: StratumStats) = (c.sizeD, c.nSampled, c.nPos, doubleToLongBits(c.sumF), doubleToLongBits(c.sumSqF))
    def stepBits(boundaries: Seq[Double], cells: Seq[StratumStats], raw: Seq[Double]) =
      (boundaries.map(doubleToLongBits), cells.map(cellBits), raw.map(doubleToLongBits))
    val catalogue = (ds, query, InQuestParams(), 1L)
    (catalogue +: Checks.samples(referenceCases, n = 400)).foreach { case (d, q, params, seed) =>
      val clue = s"$q $params seed=$seed proxies=${d.proxy.take(8).mkString(",")}"
      val (steps, result) = new InQuest(params).prepareTraced(d, q)(seed)
      val (refSteps, ref) = ReferenceInQuest.run(d, q, params, seed)
      assert(steps.map(_.t) == steps.indices, clue)
      assert(steps.map(s => stepBits(s.boundaries.toSeq, s.cells, s.rawAllocation.toSeq)) ==
        refSteps.map(s => stepBits(s.boundaries, s.cells, s.rawAllocation)), clue)
      assert(bits(result) == bits(ref), clue)
    }
  }

  test("work per segment does not grow with t over 10 000 small segments") {
    val (segments, len) = (10000, 16)
    val d = StreamGen.videoLike("long", segments * len, 0.5, 0.9, seed = 5)
    val q = QueryConfig(AggFunc.Avg, usePredicate = true, segmentLength = len, budgetPerSegment = 4)
    val params = InQuestParams()
    var sink = 0.0
    // Nanoseconds of each step, with the cumulative estimate read after it
    // as `processBatch` reads it.
    def stepNanos(): Array[Long] = {
      val planner = new InQuest.Planner(params, len)
      val session = new InQuest.Session(params, q, 3L)
      val oracle = new OracleModel(d.statistic, d.predicate, len, Some(q.budgetPerSegment))
      val observe: InQuest.Oracle = (cells, _) =>
        cells.map { case (sizeD, idxs) => oracle.cell(sizeD, idxs, q.usePredicate) }
      d.segments(len).map { seg =>
        val (idx, proxy) = d.keys(seg)
        val t0 = System.nanoTime()
        planner.add(idx, proxy)(session.step(_, observe))
        sink += session.estimate
        System.nanoTime() - t0
      }.toArray
    }
    stepNanos() // warm-up
    val runs = Seq.fill(3)(stepNanos())
    // Each window's least total over the runs, so a GC pause in one run does not count.
    def window(from: Int): Long = runs.map(_.slice(from, from + 1000).sum).min
    val (early, late) = (window(1000), window(segments - 1000))
    info(f"steps 9 000–10 000 took ${late.toDouble / early}%.2f× steps 1 000–2 000 (${late / 1e6}%.1f ms)")
    assert(late <= 3 * early, s"the last 1 000 steps took $late ns, steps 1 000–2 000 took $early ns")
    assert(!sink.isNaN)
  }
}
