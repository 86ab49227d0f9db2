package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import org.json4s._
import org.json4s.jackson.JsonMethods.{compact, parse => parseJson, render}
import repro.eval.Algorithms
import scala.collection.mutable.ArrayBuffer

/** Runs one workload and prints its metrics; see perfbench/README.md.
  *
  * Untraced runs (`--trace 0`) time the workload and print the end-to-end
  * metrics. Traced runs (`--trace 1`) run the loop untraced and then
  * traced for half the time each, so the difference is the tracing
  * overhead, and add the driver re-runs of one traced call per algorithm,
  * the listener roll-ups and the layer probes.
  * The last line of standard output is the result object.
  */
object Main {

  final case class Opts(
      workload: String,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      cores: Int,
      checksums: String,
      commit: String,
      sourceDigest: String,
      workDir: String,
      traceOut: String,
  )

  /** Session start and input generation run this many times per run.
    * `setup_s` is their median plus the one warm-up pass that follows,
    * each less the host's stolen share like every timed unit ([[Timing]]).
    */
  val SetupReps = 3

  def parse(args: Array[String]): Opts = {
    require(args.length % 2 == 0, s"expected --key value pairs, got ${args.mkString(" ")}")
    val m = args.grouped(2).map(a => a(0).stripPrefix("--") -> a(1)).toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(
      workload = get("workload"),
      seed = get("seed").toLong,
      seconds = get("seconds").toInt,
      trace = get("trace") == "1",
      cores = get("cores").toInt,
      checksums = get("checksums"),
      commit = get("commit"),
      sourceDigest = get("source-digest"),
      workDir = get("work-dir"),
      traceOut = get("trace-out"),
    )
  }

  def main(args: Array[String]): Unit = {
    val code =
      try { run(parse(args)); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.out.flush()
    sys.exit(code)
  }

  def startSession(o: Opts): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[${o.cores}]")
      .appName(s"perfbench-${o.workload}")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"${o.workDir}/spark-local")
      .config("spark.sql.streaming.checkpointLocation", s"${o.workDir}/checkpoints")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Driver heap in use after forced collections, in MiB. */
  def liveHeapMb(): Double = {
    (0 until 3).foreach { _ => System.gc(); Thread.sleep(100) }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  private val jvmStartNs = System.nanoTime()

  /** Progress on standard error, with the seconds since start. */
  def progress(msg: String): Unit = System.err.println(f"perfbench +${ms(jvmStartNs) / 1e3}%.1f s: $msg")

  /** A number as JSON; non-finite values become null. */
  def num(x: Double): JValue = if (x.isNaN || x.isInfinite) JNull else JDouble(x)

  def metricsJson(ms: Seq[(String, Double, String)]): JObject =
    JObject(ms.map { case (n, v, u) => n -> JObject("value" -> num(v), "unit" -> JString(u)) }.toList)

  /** The checksum recorded for this workload, seed and Spark master, if
    * any. Trials are summed in the order Spark collects them, which
    * depends on the number of task threads, so a checksum holds for one
    * master only.
    */
  def recordedChecksum(path: String, workload: String, seed: Long, master: String): Option[String] = {
    val rec = parseJson(new String(Files.readAllBytes(Paths.get(path)), StandardCharsets.UTF_8))
    val matches = (rec \ "seed") == JInt(seed) && (rec \ "master") == JString(master)
    if (!matches) None
    else rec \ "checksums" \ workload match {
      case JString(c) => Some(c)
      case _ => None
    }
  }

  def run(o: Opts): Unit = {
    val w = Workloads.byName(o.workload)
    val (mcQuery, streamQuery) = Inputs.queries(w)
    val off = new Tracer(false)
    val tracer = new Tracer(o.trace)
    var attempted = 0
    val failures = ArrayBuffer.empty[String]
    var failed = 0
    val agreement = ArrayBuffer.empty[Int]

    def countCalls(cs: Seq[McCall]): Unit = cs.foreach { c =>
      attempted += 1
      c.error.foreach { e => failed += 1; failures += e }
    }
    def countEpisodes(in: Inputs, eps: Seq[Episode]): Unit = eps.foreach { ep =>
      val v = StreamPhase.check(in, ep)
      attempted += v.attempted
      failed += v.failed
      failures ++= v.messages
      agreement ++= v.agreementBits
    }

    // ---- Set-up, SetupReps times: session and inputs ----
    val setupS = ArrayBuffer.empty[Double]
    val generateMs = ArrayBuffer.empty[Double]
    val recordsMs = ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var in: Inputs = null
    for (rep <- 0 until SetupReps) {
      if (spark != null) spark.stop()
      val s0 = Clock.now()
      tracer.span("setup", s"setup:$rep") {
        spark = tracer.span("spark.start")(startSession(o))
        val g0 = System.nanoTime()
        val streams = tracer.span("data.generate")(Inputs.streams(w, o.seed))
        generateMs += ms(g0)
        val r0 = System.nanoTime()
        val batches = tracer.span("data.to_records")(streams.map(Inputs.records(_, streamQuery.segmentLength)))
        recordsMs += ms(r0)
        in = Inputs(mcQuery, streamQuery, streams, batches)
      }
      setupS += s0.until(Clock.now()).ms / 1e3
    }

    progress("set-up done")
    // ---- Warm-up pass ----
    val w0 = Clock.now()
    val warm = tracer.span("warmup", "warmup")(Loop.warmup(spark, tracer, w, in, o.seed, o.cores))
    val warmupS = w0.until(Clock.now()).ms / 1e3
    countCalls(warm.calls)
    countEpisodes(in, warm.episodes)

    progress("warm-up done")
    // ---- Timed loop ----
    val untraced = Loop.timed(spark, off, w, in, o.seed, if (o.trace) o.seconds / 2.0 else o.seconds, "timed")
    val mcOff = untraced.calls
    val stOff = untraced.episodes
    countCalls(mcOff)
    countEpisodes(in, stOff)

    progress("timed loop and its checks done")
    val recorder = new EventRecorder
    var traced: Option[Traced] = None
    if (o.trace) {
      spark.sparkContext.addSparkListener(recorder)
      spark.streams.addListener(recorder.streaming)
      val on = Loop.timed(spark, tracer, w, in, o.seed, o.seconds / 2.0, "traced")
      countCalls(on.calls)
      countEpisodes(in, on.episodes)
      val firstCalls = Algorithms.All.flatMap(a => on.calls.find(_.algorithm == a))
      val driverRuns = firstCalls.map(c => c -> McPhase.driverRun(spark, tracer, in, c))
      driverRuns.foreach { case (c, d) =>
        d.error.foreach { e => if (c.ok) failed += 1; failures += e }
      }
      val probes = tracer.span("probes")(Probes.run(in, o.seed))
      traced = Some(Traced(on.calls, on.episodes, driverRuns, probes))
    }

    progress("measuring the live heap")
    val heapMb = liveHeapMb()
    val master = spark.sparkContext.master
    val meta = JObject(
      "workload" -> JString(w.name), "seed" -> JLong(o.seed), "seconds" -> JInt(o.seconds),
      "trace" -> JBool(o.trace), "cores" -> JInt(Runtime.getRuntime.availableProcessors()),
      "master" -> JString(master), "xmx_mb" -> JLong(Runtime.getRuntime.maxMemory / 1048576),
      "spark" -> JString(spark.version), "jdk" -> JString(System.getProperty("java.version")),
      "commit" -> JString(o.commit), "source_digest" -> JString(o.sourceDigest),
    )
    spark.stop() // drains the listener bus before the roll-up below
    progress("session stopped")

    // ---- Checksum of the warm-up pass, whose results do not depend on run length ----
    val checksum = new Checksum().addLong(McPhase.checksum(warm.calls).value)
      .addLong(StreamPhase.checksum(warm.episodes).value).hex
    val checksumVerdict = recordedChecksum(o.checksums, w.name, o.seed, master) match {
      case None => s"not recorded for seed ${o.seed} on $master"
      case Some(e) if e == checksum => s"matches recorded $e"
      case Some(e) =>
        failed += 1
        failures += s"checksum $checksum != recorded $e"
        s"DIFFERS from recorded $e"
    }

    // ---- End-to-end metrics (untraced loops) ----
    val post = stOff.flatMap(_.segmentMs)
    val firsts = stOff.map(_.firstEstimateMs)
    val endToEnd: Seq[(String, Double, String)] =
      Seq(("setup_s", Summary.median(setupS.toSeq) + warmupS, "s")) ++
        Algorithms.All.map(a => (s"trials_per_s.$a", McPhase.trialsPerSecond(mcOff, a), "trials/s")) ++
        Seq(
          ("segment_ms.p50", Summary.median(post), "ms"),
          ("first_estimate_ms", Summary.median(firsts), "ms"),
          ("records_per_s", streamQuery.segmentLength / (post.sum / post.size / 1e3), "records/s"),
          ("heap_live_mb", heapMb, "MB"),
          ("stream.agreement_bits", agreement.sum.toDouble / agreement.size, "bits"),
        )

    val out = System.out
    out.println(s"# perfbench ${compact(render(meta))}")
    out.println(f"# set-up runs (s): ${setupS.map(x => f"$x%.3f").mkString(", ")}; warm-up pass $warmupS%.3f s: " +
      warm.calls.map(c => f"${c.algorithm} ${c.ms}%.0f ms").mkString(", ") + "; episodes " +
      warm.episodes.map(e => (e.firstEstimateMs +: e.segmentMs).map(x => f"$x%.0f").mkString(" ")).mkString(" / ") + " ms")
    def timings(ts: Seq[Timing]) =
      ts.map(t => f"${t.ms}%.0f").mkString(" ") + " (wall " + ts.map(t => f"${t.wallMs}%.0f").mkString(" ") +
        ", stolen " + ts.map(t => f"${100 * t.stealFrac}%.0f%%").mkString(" ") + ")"
    Algorithms.All.foreach { a =>
      val cs = mcOff.filter(_.algorithm == a)
      out.println(s"# evaluate $a: ${cs.size} calls of ${w.trialsPerCall(a)} trials, call time " +
        Summary.report(cs.map(_.ms)).render("ms") + ": " + timings(cs.map(_.timing)))
    }
    out.println(s"# segments: ${post.size} after the pilot in ${stOff.size} episodes, latency " +
      Summary.report(post).render("ms") + ": " + timings(stOff.flatMap(_.segments)) +
      "; first estimates: " + timings(stOff.map(_.first)))
    endToEnd.foreach { case (n, v, u) => out.println(f"$n%-26s $v%14.4f $u") }
    out.println(f"${"failed_frac"}%-26s ${failed.toDouble / math.max(1, attempted)}%14.4f ratio ($failed of $attempted)")
    out.println(s"# checksum ${w.name} seed=${o.seed}: $checksum ($checksumVerdict)")
    val inexact = agreement.count(_ < 64)
    if (inexact > 0)
      out.println(s"# known defect: $inexact of ${agreement.size} streaming estimates are not bit-identical " +
        "to the local engine's (non-integer sums added in another order)")
    failures.take(20).foreach(f => out.println(s"# FAILED: $f"))

    val metrics: Seq[(String, Double, String)] = traced match {
      case None => endToEnd
      case Some(t) =>
        val layers = perLayer(o, in, t, recorder, generateMs.toSeq, recordsMs.toSeq, warm.calls, mcOff, stOff) :+
          (("stream.bit_exact_frac", agreement.count(_ == 64).toDouble / agreement.size, "ratio"))
        layers.foreach { case (n, v, u) => out.println(f"$n%-34s $v%16.4f $u") }
        val byName = Trace.byName(tracer.all)
        out.println("# self time by span (ms): " + byName.map(s => f"${s.name} ${s.selfNs / 1e6}%.1f").mkString(", "))
        writeTrace(o.traceOut, meta, tracer.all, recorder, layers)
        out.println(s"# trace written to ${o.traceOut}")
        layers
    }

    val result = JObject(
      "correct" -> JBool(failed == 0),
      "attempted" -> JInt(attempted),
      "failed" -> JInt(failed),
      "metrics" -> metricsJson(metrics),
    )
    out.println(compact(render(result)))
  }

  /** The traced run's spans, listener roll-ups, progress events and
    * per-layer metrics as one JSON document.
    */
  def writeTrace(path: String, meta: JObject, spans: Seq[Span], rec: EventRecorder,
                 layers: Seq[(String, Double, String)]): Unit = {
    val self = Trace.selfTimes(spans)
    val doc = JObject(
      "meta" -> meta,
      "spans" -> JArray(spans.map(s => JObject("id" -> JInt(s.id), "name" -> JString(s.name),
        "parent" -> JInt(s.parent), "op" -> JString(s.op), "start_ns" -> JLong(s.startNs),
        "end_ns" -> JLong(s.endNs), "self_ns" -> JLong(self(s.id)))).toList),
      "self_by_name" -> JArray(Trace.byName(spans).map(s => JObject("name" -> JString(s.name),
        "calls" -> JInt(s.calls), "total_ms" -> num(s.totalNs / 1e6), "self_ms" -> num(s.selfNs / 1e6))).toList),
      "spark_groups" -> JArray(rec.rollup.toSeq.sortBy(_._1).map { case (g, x) =>
        JObject("group" -> JString(g), "jobs" -> JInt(x.jobs), "stages" -> JInt(x.stages),
          "tasks" -> JInt(x.tasks), "task_run_ms" -> JArray(x.taskRunMs.map(JLong(_)).toList),
          "cpu_ms" -> num(x.cpuMs), "gc_ms" -> JLong(x.gcMs), "deser_ms" -> JLong(x.deserMs),
          "shuffle_write_bytes" -> JLong(x.shuffleWriteBytes))
      }.toList),
      "progress" -> JArray(rec.progressSeq.map(p => JObject("query" -> JString(p.queryId),
        "batch" -> JLong(p.batchId), "timestamp_ms" -> JLong(p.timestampMs),
        "duration_ms" -> JObject(p.durationMs.toList.sorted.map { case (k, v) => k -> JLong(v) }))).toList),
      "metrics" -> metricsJson(layers),
    )
    Files.createDirectories(Paths.get(path).toAbsolutePath.getParent)
    Files.write(Paths.get(path), compact(render(doc)).getBytes(StandardCharsets.UTF_8))
  }

  /** What the traced loops add to a run. */
  final case class Traced(
      mc: Vector[McCall],
      episodes: Vector[Episode],
      driverRuns: Seq[(McCall, McPhase.DriverRun)],
      probes: Seq[(String, Double)],
  )

  def perLayer(o: Opts, in: Inputs, t: Traced, rec: EventRecorder, generateMs: Seq[Double],
               recordsMs: Seq[Double], warmCalls: Seq[McCall], mcOff: Seq[McCall],
               stOff: Seq[Episode]): Seq[(String, Double, String)] = {
    val med = (xs: Seq[Double]) => Summary.median(xs)
    val groups = rec.rollup
    val group = (k: String) => groups.getOrElse(k, Rollup.Empty)

    // Monte-Carlo loop
    val trialMs = Algorithms.All.map { a =>
      a -> med(t.driverRuns.collect { case (c, d) if c.algorithm == a => d.trialMs }.flatten)
    }.toMap
    val callGroups = t.mc.map(c => c -> group(c.op))
    val nt = in.mcQuery.budgetPerSegment.toDouble * in.mcSegments
    val budgetUse = warmCalls.filter(_.algorithm == "inquest").flatMap(_.point).map(_.meanOracleCalls / nt)
    val parallelEff = t.mc.map(c => c.trials * trialMs(c.algorithm)).sum / (t.mc.map(_.timing.wallMs).sum * o.cores)
    val mcOverhead = Algorithms.All.map { a =>
      McPhase.trialsPerSecond(mcOff, a) / McPhase.trialsPerSecond(t.mc, a)
    }.sum / Algorithms.All.size - 1

    // Streaming loop: group `<queryId>/<batchId>` is segment `batchId` of an episode
    val progress = rec.progressSeq.map(p => (p.queryId, p.batchId) -> p).toMap
    val segs = t.episodes.flatMap(ep => (0 until ep.segmentsFed).map(b => (ep, b)))
    val postPilot = segs.filter(_._2 > 0)
    def segGroup(ep: Episode, b: Int) = group(s"${ep.queryId}/$b")
    def perPost(f: GroupTotals => Double) = med(postPilot.map { case (ep, b) => f(segGroup(ep, b)) })
    def dur(ep: Episode, b: Int, k: String) = progress.get((ep.queryId, b.toLong)).flatMap(_.durationMs.get(k))
    val pilots = t.episodes.filter(_.segmentsFed > 0)
    val streamOverhead = med(t.episodes.flatMap(_.segmentMs)) / med(stOff.flatMap(_.segmentMs)) - 1

    Seq(
      ("data.generate_ms", med(generateMs), "ms"),
      ("data.to_records_ms", med(recordsMs), "ms"),
    ) ++ Algorithms.All.map(a => (s"trial_ms.$a", trialMs(a), "ms")) ++
      t.probes.map { case (n, v) => (n, v, if (n.endsWith("_us")) "us" else "ms") } ++
      Seq(
        ("oracle.budget_use", budgetUse.sum / budgetUse.size, "ratio"),
        ("runner.job_ms", med(t.mc.map(_.timing.wallMs)), "ms"),
        ("runner.task_ms.p50", med(callGroups.flatMap(_._2.taskRunMs.map(_.toDouble))), "ms"),
        ("runner.task_ms.max", med(callGroups.map(_._2.maxTaskMs.toDouble)), "ms"),
        ("runner.task_gc_ms", med(callGroups.map(_._2.gcMs.toDouble)), "ms"),
        ("runner.task_deser_ms", med(callGroups.map(_._2.deserMs.toDouble)), "ms"),
        ("runner.overhead_ms", med(callGroups.map { case (c, g) => c.timing.wallMs - g.maxTaskMs }), "ms"),
        ("runner.summarize_ms", med(t.driverRuns.map(_._2.summarizeMs)), "ms"),
        ("runner.parallel_eff", parallelEff, "ratio"),
        ("spark.jobs_per_segment", perPost(_.jobs.toDouble), "count"),
        ("spark.stages_per_segment", perPost(_.stages.toDouble), "count"),
        ("spark.tasks_per_segment", perPost(_.tasks.toDouble), "count"),
        ("spark.shuffle_bytes_per_segment", perPost(_.shuffleWriteBytes.toDouble), "bytes"),
        ("spark.executor_cpu_ms_per_segment", perPost(_.cpuMs), "ms"),
        ("spark.gc_ms_per_segment", perPost(_.gcMs.toDouble), "ms"),
        ("spark.task_skew", med(pilots.map(ep => segGroup(ep, 0).skew)), "ratio"),
        ("spark.pilot_segment_ms", med(pilots.flatMap(ep => dur(ep, 0, "addBatch")).map(_.toDouble)), "ms"),
        ("stream.add_batch_ms", med(postPilot.flatMap { case (ep, b) => dur(ep, b, "addBatch") }.map(_.toDouble)), "ms"),
        ("stream.overhead_ms", med(postPilot.flatMap { case (ep, b) =>
          for (tr <- dur(ep, b, "triggerExecution"); ab <- dur(ep, b, "addBatch")) yield (tr - ab).toDouble
        }), "ms"),
        ("stream.start_ms", med(pilots.flatMap(ep => progress.get((ep.queryId, 0L))
          .map(p => (p.timestampMs - ep.startWallMs).toDouble))), "ms"),
        ("oracle.rows_per_segment", t.episodes.flatMap(_.callsPerSegment).max.toDouble, "count"),
        ("trace.overhead_pct.mc", 100 * mcOverhead, "%"),
        ("trace.overhead_pct.stream", 100 * streamOverhead, "%"),
      )
  }
}
