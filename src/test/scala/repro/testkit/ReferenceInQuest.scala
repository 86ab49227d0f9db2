package repro.testkit

import repro.core.{AggFunc, InQuestParams, QueryConfig, RunResult, StratumStats, StreamDataset}
import repro.util.Rng

/** InQuest as the paper's Algorithms 1–2 and DESIGN.md §6 state it, line
  * by line, for a property to hold the engines to, bit for bit. It is
  * written to be read, not to be fast: boxed `Seq`s, quantiles read off
  * `xs.sorted`, and a sample drawn by sorting every record of a stratum by
  * `(Rng.uniform, idx)`. It shares nothing with `repro.core` but its types.
  *
  * Where the paper leaves the arithmetic open, it is fixed here as §6 and
  * the engines fix it: quantiles interpolate linearly between order
  * statistics; the EWMA is §6's recurrence; a sum starts from its first
  * term (0 when empty) and adds left to right, in ascending `idx` within a
  * cell and in segment, then stratum, order across cells.
  */
object ReferenceInQuest {

  /** The pilot's sampling tag; segment t ≥ 1 samples with `SampleTag + t + 1`. */
  val SampleTag: Long = 0x1A057AB1EL

  /** One segment: Algorithm 1's boundaries, the cells GetPrediction reads
    * (the pilot's single stratum, then K), and GetAlloc's raw allocation.
    */
  final case class Step(boundaries: Seq[Double], cells: Seq[StratumStats], rawAllocation: Seq[Double])

  private def sum(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.reduceLeft(_ + _)

  /** StratifyByQuantile: the K−1 interior quantiles j/K of `xs`, each
    * interpolated between the order statistics at ranks ⌊j/K·(n−1)⌋ and
    * the next.
    */
  def quantiles(xs: Seq[Double], k: Int): Seq[Double] = {
    val s = xs.sorted(Ordering.Double.TotalOrdering)
    (1 until k).map { j =>
      val pos = j.toDouble / k * (s.size - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, s.size - 1)
      val frac = pos - lo
      s(lo) * (1 - frac) + s(hi) * frac
    }
  }

  /** §6's EWMA of `history`, oldest first: `num ← (1−α)·num + x`,
    * `den ← (1−α)·den + 1`, then `num / den`.
    */
  def ewma(history: Seq[Seq[Double]], alpha: Double): Seq[Double] = {
    val decay = 1.0 - alpha
    val (num, den) = history.foldLeft((history.head.map(_ => 0.0), 0.0)) { case ((num, den), x) =>
      (num.zip(x).map { case (a, b) => decay * a + b }, decay * den + 1)
    }
    num.map(_ / den)
  }

  /** The stratum of `x` under boundaries `b`, strata being the half-open
    * intervals (−∞, b_0), [b_0, b_1), …, [b_{K−2}, ∞): the first k with
    * `x < b_k`, or K−1.
    */
  def stratumOf(x: Double, b: Seq[Double]): Int = {
    val k = b.indexWhere(x < _)
    if (k < 0) b.size else k
  }

  /** `a / Σa`, or 1/K each when Σa ≤ 0 (§6's degenerate guard). */
  def normalize(a: Seq[Double]): Seq[Double] = {
    val s = sum(a)
    if (s <= 0) a.map(_ => 1.0 / a.size) else a.map(_ / s)
  }

  /** Integers summing to `total`: each share's floor, plus one for each of
    * the largest remainders, ties to the lower index.
    */
  def largestRemainder(weights: Seq[Double], total: Int): Seq[Int] = {
    val exact = normalize(weights).map(_ * total)
    val floors = exact.map(_.toInt)
    val byRemainder = exact.indices.sortBy(i => (-(exact(i) - floors(i)), i))(
      Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Int))
    val bonus = (0 until total - floors.sum).map(j => byRemainder(j % exact.size))
    floors.indices.map(i => floors(i) + bonus.count(_ == i))
  }

  /** §6's cap: no stratum gets more samples than records; the surplus goes
    * to the strata with room, in proportion to their room, until it is
    * spent or every stratum is full.
    */
  def capToSizes(counts: Seq[Int], sizes: Seq[Int]): Seq[Int] = {
    var out = counts.zip(sizes).map { case (c, s) => math.min(c, s) }
    var surplus = counts.zip(sizes).map { case (c, s) => math.max(0, c - s) }.sum
    while (surplus > 0 && out.zip(sizes).exists { case (o, s) => o < s }) {
      val room = out.zip(sizes).map { case (o, s) => s - o }
      val share = largestRemainder(room.map(_.toDouble), math.min(surplus, room.sum))
      val taken = share.zip(room).map { case (g, r) => math.min(g, r) }
      out = out.zip(taken).map { case (o, a) => o + a }
      surplus -= taken.sum
    }
    out
  }

  def pHat(c: StratumStats): Double = if (c.nSampled == 0) 0.0 else c.nPos.toDouble / c.nSampled
  def muHat(c: StratumStats): Double = if (c.nPos == 0) 0.0 else c.sumF / c.nPos
  def sigmaHat(c: StratumStats): Double =
    if (c.nPos < 2) 0.0 else math.sqrt(math.max(0.0, (c.sumSqF - c.sumF * c.sumF / c.nPos) / (c.nPos - 1)))

  /** GetAlloc lines 7–13: `a_k ∝ |D_k|·√p̂_k·σ̂_k`. */
  def rawAllocation(cells: Seq[StratumStats]): Seq[Double] =
    normalize(cells.map(c => c.sizeD * math.sqrt(pHat(c)) * sigmaHat(c)))

  /** GetPrediction: each cell weighted by `p̂·|D|`. */
  def predict(cells: Seq[StratumStats], agg: AggFunc): Double = {
    val w = cells.map(c => pHat(c) * c.sizeD)
    val wm = cells.zip(w).map { case (c, wc) => muHat(c) * wc }
    agg match {
      case AggFunc.Avg   => if (sum(w) <= 0) 0.0 else sum(wm) / sum(w)
      case AggFunc.Sum   => sum(wm)
      case AggFunc.Count => sum(w)
    }
  }

  /** The `m` records of `records` with the smallest `(Rng.uniform, idx)`,
    * in ascending `idx`: a uniform sample without replacement.
    */
  def sample(records: Seq[Int], m: Int, trialSeed: Long, tag: Long): Seq[Int] =
    records.sortBy(i => (Rng.uniform(trialSeed, i.toLong, tag), i))(
      Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Int)).take(m).sorted

  /** Algorithm 1 over `ds`, one trial. */
  def run(ds: StreamDataset, query: QueryConfig, params: InQuestParams, trialSeed: Long): (Seq[Step], RunResult) = {
    val k = params.k
    val n = query.budgetPerSegment
    val n1 = math.round(n * params.defensiveFraction).toInt
    val n2 = n - n1
    def observe(sizeD: Int, records: Seq[Int]): StratumStats = {
      val f = records.filter(i => !query.usePredicate || ds.predicate(i)).map(ds.statistic(_))
      StratumStats(sizeD, records.size, f.size, sum(f), sum(f.map(x => x * x)))
    }
    val segments = (0 until ds.length).grouped(query.segmentLength).toVector
    val ownStrata = segments.map(seg => quantiles(seg.map(ds.proxy(_)), k))
    val steps = segments.indices.foldLeft(Vector.empty[Step]) { (done, t) =>
      val seg = segments(t)
      val b = if (t == 0) ownStrata(0) else ewma(ownStrata.take(t), params.alpha)
      val strata = (0 until k).map(j => seg.filter(i => stratumOf(ds.proxy(i), b) == j))
      done :+ (
        if (t == 0) {
          // The pilot: N uniform samples, one stratum; their shares in the
          // segment's own strata seed the allocation.
          val pilot = sample(seg, n, trialSeed, SampleTag)
          Step(b, Seq(observe(seg.size, pilot)),
            rawAllocation(strata.map(s => observe(s.size, pilot.filter(s.contains)))))
        } else {
          val aHat = normalize(ewma(done.map(_.rawAllocation), params.alpha))
          val counts = capToSizes(largestRemainder(aHat.map(a => n1.toDouble / k + n2 * a), n), strata.map(_.size))
          val cells = strata.indices.map(j =>
            observe(strata(j).size, sample(strata(j), counts(j), trialSeed, SampleTag + t + 1)))
          Step(b, cells, rawAllocation(cells))
        })
    }
    val calls = steps.map(_.cells.map(_.nSampled.toLong).sum).sum
    (steps, RunResult(steps.map(s => predict(s.cells, query.agg)).toArray,
      predict(steps.flatMap(_.cells), query.agg), calls))
  }
}
