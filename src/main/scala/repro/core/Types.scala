package repro.core

/** Aggregation functions supported by InQuest queries (paper §2.1). */
sealed trait AggFunc
object AggFunc {
  /** Mean of the statistic over predicate-matching records. */
  case object Avg extends AggFunc
  /** Sum of the statistic over predicate-matching records. */
  case object Sum extends AggFunc
  /** Number of predicate-matching records. */
  case object Count extends AggFunc
}

/** An unstructured stream materialized as parallel primitive arrays.
  *
  * `proxy` is the cheap model's score (computed for every record in an
  * online fashion, paper §2.1); `statistic` is f(x) and `predicate` is
  * O(x), both of which the algorithms may only observe through an
  * [[OracleModel]]. Ground-truth helpers on this class are reserved for
  * the evaluation harness. Proxies must be finite: a NaN or ±Inf score
  * has no stratum, so it is rejected here rather than sampled.
  */
final case class StreamDataset(
    name: String,
    proxy: Array[Double],
    statistic: Array[Double],
    predicate: Array[Boolean],
) {
  require(proxy.length == statistic.length && proxy.length == predicate.length,
    s"parallel arrays must agree: ${proxy.length}/${statistic.length}/${predicate.length}")
  require(proxy.nonEmpty, "empty stream")
  require(proxy.forall(java.lang.Double.isFinite), {
    val i = proxy.indexWhere(p => !java.lang.Double.isFinite(p))
    s"non-finite proxy ${proxy(i)} at idx $i"
  })

  val length: Int = proxy.length

  /** Tumbling-window segments as index ranges (last may be short). */
  def segments(segmentLength: Int): IndexedSeq[Range] = {
    require(segmentLength > 0, s"segment length must be > 0, got $segmentLength")
    (0 until length by segmentLength).map(s => s until math.min(s + segmentLength, length))
  }

  /** Indices and proxies of the records in `segment`, as parallel
    * arrays: the keys the algorithms stratify and sample on.
    */
  def keys(segment: Range): (Array[Long], Array[Double]) = {
    val idx = new Array[Long](segment.length)
    val p = new Array[Double](segment.length)
    var j = 0
    segment.foreach { i => idx(j) = i; p(j) = proxy(i); j += 1 }
    (idx, p)
  }

  /** Exact per-segment query answer μ_t (evaluation harness only). */
  def truthPerSegment(segmentLength: Int, usePredicate: Boolean, agg: AggFunc = AggFunc.Avg): Array[Double] =
    segments(segmentLength).map(truth(_, usePredicate, agg)).toArray

  /** Exact full-query answer μ (evaluation harness only). */
  def truthOverall(usePredicate: Boolean, agg: AggFunc = AggFunc.Avg): Double =
    truth(0 until length, usePredicate, agg)

  /** The census cell of `records`: every record observed, in ascending
    * `idx`, through the same fold as a sampled cell.
    */
  private def truth(records: Range, usePredicate: Boolean, agg: AggFunc): Double = {
    val fold = new StratumStats.Fold
    records.foreach(i => fold.add(statistic(i), !usePredicate || predicate(i)))
    val census = fold.result(records.size)
    agg match {
      case AggFunc.Avg   => census.muHat
      case AggFunc.Sum   => census.sumF
      case AggFunc.Count => census.nPos.toDouble
    }
  }
}

/** A streaming aggregation query (compiled form of the Figure 2 syntax). */
final case class QueryConfig(
    agg: AggFunc = AggFunc.Avg,
    usePredicate: Boolean = false,
    segmentLength: Int = 100_000,
    budgetPerSegment: Int = 500,
) {
  require(segmentLength > 0, "segment length must be positive")
  require(budgetPerSegment > 0, "oracle budget must be positive")

  /** The total budget N·T over `nSegments` segments, as a `Long`: the
    * product of two `Int`s can exceed `Int.MaxValue`.
    */
  def totalBudget(nSegments: Int): Long = budgetPerSegment.toLong * nSegments
}

/** Sufficient statistics of one segment × stratum cell.
  *
  * `sizeD` is |D_tk| (known exactly — the proxy is computed on every
  * record); `nSampled`/`nPos` and the sums come from oracle samples only.
  */
final case class StratumStats(
    sizeD: Long,
    nSampled: Int,
    nPos: Int,
    sumF: Double,
    sumSqF: Double,
) {
  /** p̂_tk = |X⁺|/|X|, 0 when nothing was sampled. */
  def pHat: Double = if (nSampled == 0) 0.0 else nPos.toDouble / nSampled
  /** μ̂_tk, 0 when no positive samples (Algorithm 2 guard). */
  def muHat: Double = if (nPos == 0) 0.0 else sumF / nPos
  /** Unbiased σ̂²_tk, 0 with fewer than two positives (Algorithm 2 guard). */
  def varHat: Double =
    if (nPos < 2) 0.0
    else math.max(0.0, (sumSqF - sumF * sumF / nPos) / (nPos - 1))
  def stdHat: Double = math.sqrt(varHat)
}

object StratumStats {
  /** The one fold of oracle observations (f, O) into a cell's sufficient
    * stats, summing in the order they are added. Each sum starts from the
    * first matching value, as `Seq.sum` on a sized collection does, so a
    * lone −0.0 keeps its sign. Sampled cells and census cells (ground
    * truth) both go through it.
    */
  final class Fold {
    private var nSampled = 0
    private var nPos = 0
    private var sumF = 0.0
    private var sumSqF = 0.0

    def add(f: Double, o: Boolean): Unit = {
      if (o) {
        if (nPos == 0) { sumF = f; sumSqF = f * f }
        else { sumF += f; sumSqF += f * f }
        nPos += 1
      }
      nSampled += 1
    }

    def result(sizeD: Long): StratumStats = StratumStats(sizeD, nSampled, nPos, sumF, sumSqF)
  }

  /** [[Fold]] over `obs`, in order. */
  def fromSamples(sizeD: Long, obs: Seq[(Double, Boolean)]): StratumStats = {
    val fold = new Fold
    obs.foreach { case (f, o) => fold.add(f, o) }
    fold.result(sizeD)
  }
}

/** Result of one algorithm run over one stream. */
final case class RunResult(
    perSegment: Array[Double],
    finalEstimate: Double,
    oracleCalls: Long,
)

/** A streaming (or batch, presented as a stream) estimation algorithm,
  * split into a trial-invariant plan and a per-trial draw.
  */
trait StreamAlgorithm extends Serializable {
  /** Do the work that depends only on the data (strata, splits, sizes)
    * and return the trial function: trial seed to result. The function is
    * immutable and serializable, so one plan serves every Monte-Carlo
    * trial of a call. It captures only what trials read, the plan and the
    * `statistic` and `predicate` columns, not the whole dataset: the
    * proxies are the plan's input, and the harness broadcasts the function.
    */
  def prepare(ds: StreamDataset, query: QueryConfig): Long => RunResult

  final def run(ds: StreamDataset, query: QueryConfig, trialSeed: Long): RunResult =
    prepare(ds, query)(trialSeed)
}
