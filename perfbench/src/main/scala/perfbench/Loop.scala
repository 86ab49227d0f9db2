package perfbench

import org.apache.spark.sql.SparkSession
import repro.eval.Algorithms

/** The benchmark's closed loop with one client, in two phases with their
  * own time budgets: Monte-Carlo rounds, then streaming episodes. Each
  * phase measures many short units (one `evaluate` call, one segment) so
  * that every metric has several samples in a run.
  */
object Loop {

  final case class Result(calls: Vector[McCall], episodes: Vector[Episode])

  /** Share of the timed budget given to the Monte-Carlo phase. */
  val McShare = 0.4

  /** Warm-up calls run this share of the workload's trials per call, at
    * least two per task thread.
    */
  def warmupTrials(w: Workload, cores: Int)(algorithm: String): Int =
    math.max(2 * cores, w.trialsPerCall(algorithm) / 4)

  /** Algorithms whose warm-up call is repeated after the streaming
    * episode: the ones whose timed calls otherwise ran at different speeds
    * from one JVM to the next.
    */
  val Rewarmed: Seq[String] = Seq("uniform", "stratified")

  /** The warm-up pass: round 0 on the first stream, episode 0 with the
    * pilot and one post-pilot segment, and round 0 again for [[Rewarmed]].
    * Most of the pass is one-off class loading and compilation. The
    * Monte-Carlo round runs alone, before the streaming engine, so that
    * its code is compiled the same way in every run: with the two sides
    * overlapped, the timed uniform and stratified calls ran up to 2× faster
    * in one JVM than in the next. The pass's results do not depend on run
    * length and are checksummed.
    */
  def warmup(spark: SparkSession, tracer: Tracer, w: Workload, in: Inputs, seed: Long, cores: Int): Result = {
    def round(algorithms: Seq[String]) =
      McPhase.round(spark, tracer, in, seed, 0, Seq(0), warmupTrials(w, cores), "warmup", algorithms)
    val first = round(Algorithms.All)
    val episode = StreamPhase.episode(spark, tracer, in, seed, 0, 2, "warmup")
    Result(first ++ round(Rewarmed), Vector(episode))
  }

  /** Timed streaming episodes per loop. */
  val Episodes = 2

  /** Timed Monte-Carlo rounds for a run of `seconds`: as many as fill
    * [[McShare]] of it at the workload's nominal round time, at least one.
    */
  def mcRounds(w: Workload, seconds: Double): Int =
    math.max(1, math.round(seconds * McShare / w.roundSeconds).toInt)

  /** [[mcRounds]] rounds from 1 on, round r on stream r-1 (mod the
    * streams), then [[Episodes]] episodes from 1 on, each of the
    * workload's segments per episode. Both phases are a fixed amount of
    * work for a given `seconds`, so that every run times the same calls
    * and segments: when as many as fitted in a deadline were timed, a
    * quiet run timed more of the faster later calls and segments than a
    * loaded one, which widened the spread of every timed metric. Each
    * phase starts on a collected heap.
    */
  def timed(spark: SparkSession, tracer: Tracer, w: Workload, in: Inputs, seed: Long,
            seconds: Double, label: String): Result = {
    System.gc()
    val calls = (1 to mcRounds(w, seconds)).flatMap { r =>
      McPhase.round(spark, tracer, in, seed, r, Seq((r - 1) % in.streams.size), w.trialsPerCall, label)
    }.toVector
    System.gc()
    val episodes = (1 to Episodes).map { e =>
      StreamPhase.episode(spark, tracer, in, seed, e, w.segmentsPerEpisode, label)
    }.toVector
    Result(calls, episodes)
  }
}
