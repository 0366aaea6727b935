package swagperf

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import scala.collection.mutable

/** What one JVM found: end-to-end and per-layer metrics, what it ran on
  * and with which parameters, notes for the log, and the count of checked
  * rounds or batches.
  */
final class Report(val workDir: File, val traceFile: File) {
  val e2e = new Metrics
  val layer = new Metrics
  private val meta = mutable.LinkedHashMap.empty[String, String]
  private val notes = mutable.ArrayBuffer.empty[String]
  var attempted = 0L
  var failed = 0L

  def e2e(name: String, unit: String, v: Double): Unit = e2e.update(name, unit, v)
  def layer(name: String, unit: String, v: Double): Unit = layer.update(name, unit, v)
  def note(s: String): Unit = { notes += s; println(s"swagperf: $s") }
  def params(key: String, v: Any): Unit = meta(key) = jsonOf(v)
  def params(key: String, kv: Seq[(String, Any)]): Unit = meta(key) = Json.obj(kv.map { case (k, x) => k -> jsonOf(x) })
  private def jsonOf(x: Any): String = x match {
    case d: Double => Json.num(d)
    case i: Int    => i.toString
    case l: Long   => l.toString
    case b: Boolean => b.toString
    case s         => Json.str(s.toString)
  }
  /** Diagnostics that show, from one run's output, whether it was still
    * warming up, shifted regime or ran on a slow machine: JIT time and GC
    * pauses inside the timed phase, the spread of items/s from one slice
    * (a repetition or a second) to the next, and the host probe's times.
    */
  def steadiness(slices: Seq[Double], pauses: Seq[Double], jitMs: Double, hostNs: Seq[Long], slice: String): Unit = {
    layer("jvm.jit_ms_timed", "ms", jitMs)
    layer("jvm.gc_count", "count", pauses.length)
    layer("jvm.gc_pause_ms", "ms", pauses.sum)
    layer("jvm.gc_pause_max_ms", "ms", if (pauses.isEmpty) 0.0 else pauses.max)
    val half = slices.length / 2
    layer("steady.slice_iqr_share", "ratio", Stats.iqrShare(slices))
    layer("steady.slice_min_share", "ratio", slices.min / Stats.median(slices))
    layer("steady.second_half_ratio", "ratio",
      if (half == 0) 1.0 else Stats.median(slices.drop(half)) / Stats.median(slices.take(half)))
    val host = hostNs.map(_ / 1e6)
    layer("host.probe_ms", "ms", Stats.median(host))
    layer("host.probe_iqr_share", "ratio", Stats.iqrShare(host))
    note(s"items/s per $slice: " + slices.map(x => f"$x%.4g").mkString(" "))
    note("host probe ms: " + host.map(x => f"$x%.1f").mkString(" "))
  }

  /** The end-to-end figures before scaling to the host probe's speed. */
  def raw(itemsPerS: Double, p50Ms: Double, setupS: Double): Unit = {
    layer("raw.items_per_s", "items/s", itemsPerS)
    layer("raw.result_latency_p50_ms", "ms", p50Ms)
    layer("raw.setup_s", "s", setupS)
  }

  def setCounts(a: Long, f: Long): Unit = { attempted += a; failed += f }

  def toJson: String = Json.obj(Seq(
    "attempted" -> attempted.toString,
    "failed" -> failed.toString,
    "end_to_end" -> e2e.toJson,
    "per_layer" -> layer.toJson,
    "meta" -> Json.obj(meta.toSeq),
    "notes" -> notes.map(Json.str).mkString("[", ", ", "]"),
  ))
}

object Report {
  /** Spark-engine and replay layers: zero on the tree workloads, which
    * run no Spark.
    */
  val sparkLayers: Seq[(String, String)] = Seq(
    "spark.trigger_ms" -> "ms", "spark.query_planning_ms" -> "ms", "spark.add_batch_ms" -> "ms",
    "spark.wal_commit_ms" -> "ms", "spark.commit_offsets_ms" -> "ms", "spark.latest_offset_ms" -> "ms",
    "spark.poll_wait_ms" -> "ms", "spark.overhead_share" -> "ratio",
    "spark.state.all_updates_ms" -> "ms", "spark.state.commit_ms" -> "ms", "spark.state.rows_total" -> "count",
    "spark.state.memory_bytes_per_item" -> "B/item",
    "replay.bulk_insert_ms" -> "ms", "replay.bulk_evict_ms" -> "ms", "replay.snapshot_ms" -> "ms",
    "replay.sort_ms" -> "ms", "replay.query_ms" -> "ms", "replay.fiba_share" -> "ratio",
  )
}

/** Entry point of the benchmark JVM; `run.py` starts it with pinned JVM
  * flags. Writes the run's report as JSON to `--out` and exits 0 only if
  * every checked round or batch matched the reference.
  *
  *   Main --workload ooo_bulk|stream_durable --seed N
  *        --seconds S --trace 0|1 --out FILE --work DIR --trace-file FILE [--smoke]
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = opt("workload")
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    val smoke = args.contains("--smoke")
    val out = new File(opt("out"))
    val work = new File(opt("work"))
    work.mkdirs()
    val traceFile = new File(opt("trace-file"))

    JvmProbe.install()
    val report = new Report(work, traceFile)
    report.params("workload", workload)
    report.params("seed", seed)
    report.params("seconds", seconds)
    report.params("trace", trace)
    report.params("smoke", smoke)
    report.params("jdk", s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}")
    report.params("cpus", Runtime.getRuntime.availableProcessors)
    report.params("max_heap_bytes", Runtime.getRuntime.maxMemory)
    report.params("collectors", JvmProbe.collectorNames.mkString(", "))
    report.params("jvm_args", JvmProbe.inputArguments.filterNot(_.startsWith("--add-opens")).mkString(" "))

    val code =
      try {
        workload match {
          case "ooo_bulk"       => new TreeBench(seed, seconds, trace, smoke, report).run()
          case "stream_durable" => StreamBench.run(seed, seconds, trace, smoke, report)
          case other            => throw new IllegalArgumentException(s"unknown workload $other")
        }
        if (report.failed == 0) 0 else 1
      } catch {
        case t: Throwable =>
          Console.err.println(s"swagperf: $workload failed")
          t.printStackTrace()
          report.setCounts(1, 1) // the round or batch that threw
          1
      }
    Files.write(out.toPath, report.toJson.getBytes(StandardCharsets.UTF_8))
    System.out.flush()
    // Spark leaves non-daemon threads behind; end the JVM explicitly.
    System.exit(code)
  }
}
