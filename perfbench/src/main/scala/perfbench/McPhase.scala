package perfbench

import org.apache.spark.sql.SparkSession
import repro.eval.{Algorithms, EvalPoint, Runner, TrialOutcome}
import scala.util.{Failure, Success, Try}

/** One `Runner.evaluate` call and its verdict. */
final case class McCall(
    op: String,
    round: Int,
    stream: Int,
    algorithm: String,
    trials: Int,
    baseSeed: Long,
    timing: Timing,
    point: Option[EvalPoint],
    error: Option[String],
) {
  def ok: Boolean = error.isEmpty

  /** Wall time less the host's stolen share; see [[Timing]]. */
  def ms: Double = timing.ms
}

/** The Monte-Carlo side of the loop: one `Runner.evaluate` call per
  * (stream, algorithm) per round, algorithms in `Algorithms.All` order.
  * Round r continues each (stream, algorithm) trial sequence where round
  * r-1 stopped, like one long loop of trials cut into calls.
  */
object McPhase {

  def baseSeed(seed: Long, round: Int, trials: Int): Long = seed * 1000003L + round.toLong * trials

  /** One round over `streams` and `algorithms` with `trials(algorithm)`
    * trials per call.
    */
  def round(spark: SparkSession, tracer: Tracer, in: Inputs, seed: Long, round: Int,
            streams: Seq[Int], trials: String => Int, label: String,
            algorithms: Seq[String] = Algorithms.All): Vector[McCall] =
    (for (s <- streams; a <- algorithms) yield call(spark, tracer, in, seed, round, s, a, trials(a), label)).toVector

  def call(spark: SparkSession, tracer: Tracer, in: Inputs, seed: Long,
           round: Int, stream: Int, algorithm: String, n: Int, label: String): McCall = {
    val base = baseSeed(seed, round, n)
    val op = s"$label:r$round:s$stream:$algorithm"
    val sc = spark.sparkContext
    sc.setLocalProperty(EventRecorder.OpKey, op)
    val s0 = Clock.now()
    val res = Try(tracer.span("runner.evaluate", op) {
      Runner.evaluate(spark, in.streams(stream), algorithm, in.mcQuery, n, base)
    })
    val timing = s0.until(Clock.now())
    sc.setLocalProperty(EventRecorder.OpKey, null)
    val error = res match {
      case Failure(e) => Some(s"evaluate threw: $e")
      case Success(p) => check(p, in, n)
    }
    McCall(op, round, stream, algorithm, n, base, timing, res.toOption, error)
  }

  /** Output checks on one `EvalPoint`: the trial count, finite errors, and
    * the mean oracle calls within the budget N·T.
    */
  def check(p: EvalPoint, in: Inputs, trials: Int): Option[String] = {
    val nt = in.mcQuery.budgetPerSegment.toDouble * in.mcSegments
    val errs = Seq(p.meanTrialMedianError, p.medianSegmentRmse, p.fullQueryRmse)
    if (p.nTrials != trials) Some(s"${p.algorithm}: ${p.nTrials} trials, expected $trials")
    else if (errs.exists(x => x.isNaN || x.isInfinite)) Some(s"${p.algorithm}: non-finite error $errs")
    else if (!(p.meanOracleCalls <= nt)) Some(s"${p.algorithm}: mean oracle calls ${p.meanOracleCalls} > N·T = $nt")
    else None
  }

  /** Trials run one at a time on the driver with the seeds of `c`. */
  final case class DriverRun(trialMs: Vector[Double], summarizeMs: Double, error: Option[String])

  /** Re-run the trials of call `c` on the driver, single-threaded, and
    * check that `Runner.summarize` over them equals the call's `EvalPoint`
    * exactly, field by field. Floating-point sums depend on order, so the
    * outcomes are summarized in the order Spark collects trials (a
    * round-robin repartition of `spark.range` to the default parallelism),
    * and in trial order if that does not match.
    */
  def driverRun(spark: SparkSession, tracer: Tracer, in: Inputs, c: McCall): DriverRun = {
    val ds = in.streams(c.stream)
    val ms = Vector.newBuilder[Double]
    val outcomes = tracer.span("driver.trials", c.op) {
      (0 until c.trials).map { t =>
        tracer.span("trial") {
          val t0 = System.nanoTime()
          val r = Algorithms.byName(c.algorithm).run(ds, in.mcQuery, c.baseSeed + t)
          ms += (System.nanoTime() - t0) / 1e6
          TrialOutcome(t.toLong, r.perSegment.toSeq, r.finalEstimate, r.oracleCalls)
        }
      }
    }
    val sparkOrder = spark.range(c.trials).repartition(spark.sparkContext.defaultParallelism)
      .collect().map(_.longValue.toInt).toSeq
    val orders = Seq(sparkOrder.map(outcomes), outcomes)
    var summarizeMs = 0.0
    val local = orders.map { o =>
      val t0 = System.nanoTime()
      val p = tracer.span("runner.summarize", c.op)(Runner.summarize(ds, c.algorithm, in.mcQuery, o))
      if (summarizeMs == 0.0) summarizeMs = (System.nanoTime() - t0) / 1e6
      p
    }
    val error = c.point match {
      case Some(p) if !local.contains(p) =>
        Some(s"${c.op}: summarize over driver trials ${local.head} != evaluate $p")
      case _ => None // equal, or the call itself already failed
    }
    DriverRun(ms.result(), summarizeMs, error)
  }

  /** Checksum of the round-0 (warm-up) results. */
  def checksum(calls: Seq[McCall]): Checksum = {
    val c = new Checksum
    calls.filter(_.round == 0).sortBy(x => (x.stream, Algorithms.All.indexOf(x.algorithm))).foreach { x =>
      x.point.foreach { p =>
        c.addLong(p.nTrials).addLong(p.totalBudget)
        c.addDouble(p.meanTrialMedianError).addDouble(p.medianSegmentRmse)
          .addDouble(p.fullQueryRmse).addDouble(p.meanOracleCalls)
      }
    }
    c
  }

  /** Trials per second of one algorithm: trials completed over the
    * summed time of its calls, less the host's stolen share.
    */
  def trialsPerSecond(calls: Seq[McCall], algorithm: String): Double = {
    val cs = calls.filter(_.algorithm == algorithm)
    cs.map(_.trials).sum / (cs.map(_.ms).sum / 1e3)
  }
}
