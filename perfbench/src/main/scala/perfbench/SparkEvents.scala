package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler._
import org.apache.spark.sql.streaming.StreamingQueryListener
import scala.jdk.CollectionConverters._

/** Listener events reduced to the fields the benchmark rolls up. `group`
  * names the operation a job belongs to: `<queryId>/<batchId>` for a
  * streaming micro-batch, the `perfbench.op` local property for a job the
  * benchmark started itself, or "other".
  */
final case class JobEvent(jobId: Int, group: String, stageIds: Seq[Int])
final case class StageEvent(stageId: Int)
final case class TaskEvent(
    stageId: Int,
    runMs: Long,
    cpuNs: Long,
    gcMs: Long,
    deserMs: Long,
    shuffleWriteBytes: Long,
)
final case class ProgressEvent(queryId: String, batchId: Long, timestampMs: Long, durationMs: Map[String, Long])

/** Per-operation totals of the tasks, stages and jobs it ran. */
final case class GroupTotals(
    jobs: Int,
    stages: Int,
    tasks: Int,
    taskRunMs: Vector[Long],
    cpuMs: Double,
    gcMs: Long,
    deserMs: Long,
    shuffleWriteBytes: Long,
) {
  def maxTaskMs: Long = if (taskRunMs.isEmpty) 0L else taskRunMs.max

  /** Slowest task over the median task, both floored at 1 ms so that
    * sub-millisecond tasks do not divide by zero.
    */
  def skew: Double =
    if (taskRunMs.isEmpty) 1.0
    else math.max(1L, maxTaskMs).toDouble / math.max(1.0, Summary.median(taskRunMs.map(_.toDouble)))
}

object Rollup {
  val Empty: GroupTotals = GroupTotals(0, 0, 0, Vector.empty, 0.0, 0L, 0L, 0L)

  /** Roll listener events up per group. A stage belongs to the first job
    * that lists it, and counts once however many attempts it had; a task
    * belongs to its stage's group. Events of unknown stages are dropped.
    */
  def byGroup(jobs: Seq[JobEvent], stages: Seq[StageEvent], tasks: Seq[TaskEvent]): Map[String, GroupTotals] = {
    val stageGroup = scala.collection.mutable.LinkedHashMap.empty[Int, String]
    jobs.sortBy(_.jobId).foreach(j => j.stageIds.foreach(s => if (!stageGroup.contains(s)) stageGroup(s) = j.group))
    val jobCount = jobs.groupBy(_.group).view.mapValues(_.size).toMap
    val stageCount = stages.map(_.stageId).distinct.flatMap(stageGroup.get).groupBy(identity).view.mapValues(_.size).toMap
    val taskGroups = tasks.flatMap(t => stageGroup.get(t.stageId).map(_ -> t)).groupBy(_._1)
    (jobCount.keySet ++ taskGroups.keySet).map { g =>
      val ts = taskGroups.getOrElse(g, Nil).map(_._2)
      g -> GroupTotals(
        jobs = jobCount.getOrElse(g, 0),
        stages = stageCount.getOrElse(g, 0),
        tasks = ts.size,
        taskRunMs = ts.map(_.runMs).toVector,
        cpuMs = ts.map(_.cpuNs).sum / 1e6,
        gcMs = ts.map(_.gcMs).sum,
        deserMs = ts.map(_.deserMs).sum,
        shuffleWriteBytes = ts.map(_.shuffleWriteBytes).sum,
      )
    }.toMap
  }
}

/** Collects Spark and Structured Streaming listener events in memory. */
final class EventRecorder extends SparkListener {
  val jobs = new ConcurrentLinkedQueue[JobEvent]()
  val stages = new ConcurrentLinkedQueue[StageEvent]()
  val tasks = new ConcurrentLinkedQueue[TaskEvent]()
  val progress = new ConcurrentLinkedQueue[ProgressEvent]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val p = Option(e.properties)
    def prop(k: String): Option[String] = p.flatMap(x => Option(x.getProperty(k)))
    val group = prop(EventRecorder.BatchIdKey) match {
      case Some(batch) => s"${prop(EventRecorder.QueryIdKey).getOrElse("?")}/$batch"
      case None => prop(EventRecorder.OpKey).getOrElse("other")
    }
    jobs.add(JobEvent(e.jobId, group, e.stageIds))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    stages.add(StageEvent(e.stageInfo.stageId))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(e.taskMetrics).foreach { m =>
      tasks.add(TaskEvent(e.stageId, m.executorRunTime, m.executorCpuTime, m.jvmGCTime,
        m.executorDeserializeTime, m.shuffleWriteMetrics.bytesWritten))
    }

  val streaming: StreamingQueryListener = new StreamingQueryListener {
    override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
    override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
    override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit = {
      val p = e.progress
      progress.add(ProgressEvent(p.id.toString, p.batchId,
        java.time.Instant.parse(p.timestamp).toEpochMilli,
        p.durationMs.asScala.map { case (k, v) => k -> v.longValue }.toMap))
    }
  }

  def progressSeq: Seq[ProgressEvent] = progress.asScala.toSeq

  def rollup: Map[String, GroupTotals] =
    Rollup.byGroup(jobs.asScala.toSeq, stages.asScala.toSeq, tasks.asScala.toSeq)
}

object EventRecorder {
  /** Local property the benchmark sets around each call it makes. */
  val OpKey = "perfbench.op"
  /** Local properties Structured Streaming sets on a micro-batch's jobs. */
  val BatchIdKey = "streaming.sql.batchId"
  val QueryIdKey = "sql.streaming.queryId"
}
