package repro.data

import repro.core.StreamDataset
import repro.util.{Rng, Stats}

/** Synthetic unstructured-stream generators (DESIGN.md §§3–4).
  *
  * Each generator produces the three per-record signals the algorithms
  * consume — proxy score, oracle statistic f(x) and oracle predicate O(x)
  * — with the temporal structure and calibration targets of the paper's
  * real-world streams: predicate positivity rate `p` and proxy↔statistic
  * Pearson correlation `r` (Table 2), plus temporal locality (dwell times
  * of thousands of records) which is the property §5.2 credits for
  * InQuest beating batch stratification.
  *
  * Proxies are built exactly the way the paper builds its §5.5/§5.6
  * proxies: `proxy = β·ĝ + (1−β)·U(0,1)` with ĝ the min–max-normalized
  * statistic, then re-normalized to [0,1]; β is solved by bisection so
  * the realized Pearson r hits the target (correlation is monotone in β).
  */
object StreamGen {

  private val ProxyNoiseTag = 0x9E0B1A5L

  /** Min–max normalize to [0,1]; constant series map to all-zeros. */
  def normalize(xs: Array[Double]): Array[Double] = {
    val lo = xs.min; val hi = xs.max
    if (hi == lo) Array.fill(xs.length)(0.0) else xs.map(x => (x - lo) / (hi - lo))
  }

  /** β-interpolated proxy of the paper's equation (13), normalized. */
  def interpolatedProxy(g: Array[Double], beta: Double, seed: Long): Array[Double] = {
    require(beta >= 0 && beta <= 1, s"beta must be in [0,1], got $beta")
    val gHat = normalize(g)
    val raw = Array.tabulate(g.length) { i =>
      beta * gHat(i) + (1 - beta) * Rng.uniform(seed, i.toLong, ProxyNoiseTag)
    }
    normalize(raw)
  }

  /** The interpolated proxy whose Pearson r against `g` is `targetR`,
    * with β found by bisection on the monotone map β ↦ r.
    */
  def calibrateProxy(g: Array[Double], targetR: Double, seed: Long): Array[Double] = {
    require(targetR > 0 && targetR < 1, s"target r must be in (0,1), got $targetR")
    var lo = 0.0; var hi = 1.0
    var proxy: Array[Double] = null
    val gSeq = g.toSeq
    for (_ <- 0 until 30) {
      val beta = (lo + hi) / 2
      proxy = interpolatedProxy(g, beta, seed)
      if (Stats.pearson(proxy.toSeq, gSeq) < targetR) lo = beta else hi = beta
    }
    proxy
  }

  /** Alternating busy/quiet episode schedule with exponential dwell times
    * (mean `baseDwell·2p` busy, `baseDwell·2(1−p)` quiet) and a feedback
    * rule: at each episode boundary the next regime is whichever pulls
    * the cumulative busy fraction back toward `targetP`. This keeps long
    * dwell (temporal locality) while pinning the realized rate — a free
    * Markov chain's realized rate over ~30 episodes is too noisy to
    * reproduce Table 2's p.
    */
  private def regimeSchedule(length: Int, targetP: Double, baseDwell: Double,
                             rng: Rng.Seq): Array[Boolean] = {
    val busyArr = new Array[Boolean](length)
    var i = 0
    var busyTime = 0L
    while (i < length) {
      val busy = if (i == 0) rng.nextUniform() < targetP
                 else busyTime.toDouble / i < targetP
      val mean = baseDwell * 2 * (if (busy) targetP else 1 - targetP)
      val dwell = math.max(1, math.round(-mean * math.log(
        math.max(rng.nextUniform(), 1e-12))).toInt)
      val end = math.min(length, i + dwell)
      while (i < end) {
        busyArr(i) = busy
        if (busy) busyTime += 1
        i += 1
      }
    }
    busyArr
  }

  /** Video-like count stream with a *smoothly drifting* intensity — the
    * structure §5.2 credits for InQuest beating batch stratification:
    * "proxy scores that are nearby in time have similar values, which
    * results in smaller σ_tk".
    *
    * `λ_t = c·λ0·exp(w_t)` where w_t is a mean-reverting OU walk with a
    * correlation time of `tau` = 250 000 records (≈ a segment), i.e.
    * diurnal-style load variation; counts are Poisson(λ_t). The predicate is
    * `count > 0`, whose stationary rate `mean(1 − e^{−λ_t})` is pinned to
    * `targetP` by bisecting the scale `c` (monotone).
    */
  def videoLike(
      name: String,
      length: Int,
      targetP: Double,
      targetR: Double,
      lambda0: Double = 2.0,
      drift: Double = 0.55,
      seed: Long = 0,
  ): StreamDataset = {
    require(targetP > 0 && targetP < 1, s"target p must be in (0,1), got $targetP")
    require(drift >= 0, s"drift must be >= 0, got $drift")
    val rng = new Rng.Seq(seed, tag = 0x71DE0L)
    val tau = 250_000.0
    val lam = new Array[Double](length)
    val sigmaW = drift * math.sqrt(2.0 / tau) // stationary std of w ≈ drift
    var w = drift * rng.nextGaussian()
    // Per-record log-normal overdispersion: real object counts are bursty
    // (variance >> mean), and without it a p≈0.5 Poisson stream degenerates
    // to counts ∈ {0,1} whose matching statistic is constant.
    val overdispersion = 1.3
    var i = 0
    while (i < length) {
      w = (1 - 1.0 / tau) * w + sigmaW * rng.nextGaussian()
      val g = math.exp(overdispersion * rng.nextGaussian() - overdispersion * overdispersion / 2)
      lam(i) = lambda0 * math.exp(w) * g
      i += 1
    }
    def pOf(c: Double): Double = {
      var s = 0.0; var j = 0
      while (j < length) { s += 1 - math.exp(-c * lam(j)); j += 1 }
      s / length
    }
    var lo = 1e-6; var hi = 1e3
    for (_ <- 0 until 40) {
      val mid = math.sqrt(lo * hi)
      if (pOf(mid) < targetP) lo = mid else hi = mid
    }
    val c = math.sqrt(lo * hi)
    val counts = Array.tabulate(length)(j => rng.nextPoisson(c * lam(j)).toDouble)
    StreamDataset(name, calibrateProxy(counts, targetR, seed), counts, counts.map(_ > 0))
  }

  /** Text-like stream: the predicate (e.g. "is customer tweet") follows a
    * 2-state Markov chain with stationary rate `targetP`; the statistic is
    * a bounded AR(1) "sentiment" in [0,1] whose level differs slightly by
    * predicate state. The proxy targets correlation with the *masked*
    * statistic `O(x)·f(x)` — a proxy for "matches and is positive", like
    * the paper's `proxy_mentions_candidate_pos`.
    */
  def textLike(
      name: String,
      length: Int,
      targetP: Double,
      targetR: Double,
      baseDwell: Double = 5000.0,
      seed: Long = 0,
  ): StreamDataset = {
    require(targetP > 0 && targetP < 1, s"target p must be in (0,1), got $targetP")
    val rng = new Rng.Seq(seed, tag = 0x7E47L)
    val matches = regimeSchedule(length, targetP, baseDwell, rng)
    val sentiment = new Array[Double](length)
    // Sentiment = slowly drifting topic-level mood (OU, segment-scale
    // correlation) + per-tweet noise; customer tweets trend lower than
    // company replies, so the predicate matters for the answer.
    val tau = 200_000.0
    val sigmaB = 0.13 * math.sqrt(2.0 / tau)
    var base = 0.13 * rng.nextGaussian()
    var i = 0
    while (i < length) {
      base = (1 - 1.0 / tau) * base + sigmaB * rng.nextGaussian()
      val mean = 0.5 + base + (if (matches(i)) -0.08 else 0.08)
      sentiment(i) = math.min(1.0, math.max(0.0, mean + 0.22 * rng.nextGaussian()))
      i += 1
    }
    val masked = Array.tabulate(length)(i => if (matches(i)) sentiment(i) else 0.0)
    StreamDataset(name, calibrateProxy(masked, targetR, seed), sentiment, matches)
  }

  /** §5.6 adversarial stream: K = 3 interleaved Normal substreams whose
    * parameters (p_tk, σ_tk, μ_tk) are re-drawn at `nShifts` uniformly
    * random change-points; proxies are the β = 0.75 interpolation. Ranges
    * are the paper's: p ∈ [0,1], σ ∈ [0,3], μ_k ∈ ([0,3], [3,6], [6,9]).
    */
  def adversarial(
      name: String,
      length: Int,
      nShifts: Int,
      seed: Long = 0,
  ): StreamDataset = {
    require(nShifts >= 0, s"nShifts must be >= 0, got $nShifts")
    val k = 3
    val rng = new Rng.Seq(seed, tag = 0xAD7E25A1L)
    val shiftIdxs = Vector.fill(nShifts)((rng.nextUniform() * length).toInt).sorted

    def drawParams(): (Array[Double], Array[Double], Array[Double]) = {
      val p = Array.fill(k)(rng.nextUniform())
      val sigma = Array.fill(k)(rng.nextUniform() * 3.0)
      val mu = Array.tabulate(k)(j => 3.0 * j + rng.nextUniform() * 3.0)
      (p, sigma, mu)
    }

    var (p, sigma, mu) = drawParams()
    var nextShift = 0
    val g = new Array[Double](length)
    val matches = new Array[Boolean](length)
    var i = 0
    while (i < length) {
      while (nextShift < shiftIdxs.size && i == shiftIdxs(nextShift)) {
        val np = drawParams(); p = np._1; sigma = np._2; mu = np._3
        nextShift += 1
      }
      val sub = (rng.nextUniform() * k).toInt.min(k - 1)
      g(i) = mu(sub) + sigma(sub) * rng.nextGaussian()
      matches(i) = rng.nextUniform() < p(sub)
      i += 1
    }
    StreamDataset(name, interpolatedProxy(g, 0.75, seed), g, matches)
  }
}
