package repro.baselines

import repro.core._
import repro.sampling.Reservoir

/** Uniform-sampling streaming baseline (paper §5.1).
  *
  * Precomputes N·T records to sample uniformly at random over the whole
  * query duration, invokes the oracle on exactly those, and estimates each
  * segment as the plain mean of the statistic over the predicate-matching
  * samples that landed in that segment.
  */
final class UniformSampling extends StreamAlgorithm {
  override def prepare(ds: StreamDataset, query: QueryConfig): Long => RunResult = {
    val statistic = ds.statistic
    val predicate = ds.predicate
    val n = ds.length
    val segs = ds.segments(query.segmentLength)
    val totalBudget = math.min(n.toLong, query.totalBudget(segs.size)).toInt

    trialSeed => {
      // No per-segment limit: the draw is uniform over the duration, so some
      // segments legitimately receive more than N samples (the total is N·T).
      val oracle = new OracleModel(statistic, predicate, query.segmentLength)

      val sampled = Reservoir.bottomNOfRange(0L, n.toLong, totalBudget, trialSeed, UniformSampling.SampleTag)

      def estimate(sizeD: Long, idxs: Array[Long]): Double =
        Estimator.estimate(Seq(oracle.cell(sizeD, idxs, query.usePredicate)), query.agg)
      val perSegment = segs.map(seg => estimate(seg.size.toLong, sampled.filter(i => seg.contains(i.toInt)))).toArray
      RunResult(perSegment, estimate(n.toLong, sampled), oracle.totalCalls)
    }
  }
}

object UniformSampling {
  val SampleTag: Long = 0xB0_0F1F02L
}
