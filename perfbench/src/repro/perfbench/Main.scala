package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.time.Instant

import scala.collection.immutable.ListMap

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule

import repro.core.{LongVec, Telemetry}
import repro.index.PIMTree
import repro.join.{ParallelIBWJ, SingleThreadedJoin}

/** One benchmark run in a fresh JVM: several rounds of (generate, build,
  * prefill, timed join) over the same seeded stream, then the correctness
  * reference. Prints one report line, `PERFBENCH_JSON {...}`, holding every
  * round's (count, checksum), the reference's, and the measured metrics;
  * `run.py` applies the gate and prints the benchmark's result.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
  */
object Main {

  /** Measured rounds per run; a warm-up round runs before them. Every
    * end-to-end figure is a median over these rounds, which keeps a run's
    * figures steady when one or two rounds are disturbed.
    */
  private val Rounds = 5
  private val RoundDeadlineMs = 60000L

  private def cpuNanos: Long =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Nearest-rank percentile. */
  def percentile(xs: Array[Long], p: Double): Double = {
    if (xs.isEmpty) return 0.0
    val s = xs.sorted
    s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1))).toDouble
  }

  /** What one round measured. `layer` is filled for traced rounds only;
    * a warm-up round is gated but its timings are not reported.
    */
  final case class Round(
      warmup: Boolean, traced: Boolean, diff: Int, count: Long, checksum: Long, timedTuples: Int,
      genNs: Long, setupNs: Long, timedNs: Long, cpuNs: Long, gaps: Array[Long],
      layer: Map[String, Double], from: Instant, to: Instant) {
    def throughput: Double = timedTuples * 1e9 / timedNs
  }

  // --------------------------------------------------------------- rounds

  def runRound(spec: Spec, seed: Long, timed: Int, warmup: Boolean, traced: Boolean): Round = {
    val t0    = System.nanoTime()
    val input = Workloads.generate(spec, seed, timed)
    val genNs = System.nanoTime() - t0
    val wl    = input.wl

    val pimR  = spec.mkIndex()
    val pimS  = if (spec.selfJoin) pimR else spec.mkIndex()
    val trees = Seq(pimR, pimS).distinct
    val join  = new ParallelIBWJ(wl, spec.w, spec.w, input.diff, pimR, pimS, spec.threads,
                                 spec.taskSize, spec.selfJoin, nonblockingMerge = true,
                                 trackLatency = traced, timedFrom = input.timedFrom)

    // snapshots taken when the first timed result reaches the sink
    var cpu0 = 0L; var at0 = Instant.EPOCH; var up0 = 0L; var heap0 = 0L; var gc0 = 0L
    var loaded0 = 0L; var stored0 = 0L; var lat0 = (0L, 0L)
    var merges0 = Seq.empty[(Long, Long)]
    val expectedStamps = (timed * spec.sigmaS * 1.5 / spec.gapBlock).toInt
    val sink = new BenchSink(spec.gapBlock, input.rFrom, input.sFrom, expectedStamps, () => {
      cpu0 = cpuNanos
      if (traced) {
        at0 = Instant.now(); up0 = GcWatch.uptimeMs; heap0 = GcWatch.heapUsed; gc0 = GcWatch.collectionMs
        loaded0 = Telemetry.bytesLoaded.sum; stored0 = Telemetry.bytesStored.sum
        merges0 = trees.map(t => (t.mergeCount, t.totalMergeNanos))
        trees.foreach(_.trackInsertDistribution(true))
        lat0 = (join.latencySumNanos.get, join.latencyCount.get)
      }
    })

    Telemetry.enabled = traced
    try join.run(sink)
    finally Telemetry.enabled = false
    val end   = System.nanoTime()
    val cpuNs = cpuNanos - cpu0
    val (heap1, up1, at1) = (GcWatch.heapUsed, GcWatch.uptimeMs, Instant.now())
    val timedNs = end - sink.startNanos
    val timedTuples = wl.length - input.timedFrom
    require(sink.timedCount > 0, "no timed results: the timed segment never started")
    // the heap peaks at the end of a run, with the input, the join's
    // per-arrival arrays and the indexes all still live: collect there so
    // GcWatch sees that peak
    System.gc()
    java.lang.ref.Reference.reachabilityFence(input)
    java.lang.ref.Reference.reachabilityFence(join)
    java.lang.ref.Reference.reachabilityFence(trees)

    val layer: Map[String, Double] = if (!traced) Map.empty else {
      val secs = timedNs / 1e9
      val alloc = heap1 - heap0 + GcWatch.freedBetween(up0, up1)
      val mergeCount = trees.zip(merges0).map { case (t, (c, _)) => t.mergeCount - c }.sum
      val mergeNanos = trees.zip(merges0).map { case (t, (_, ns)) => t.totalMergeNanos - ns }.sum
      val tsSize     = trees.map(_.currentState.ts.size.toDouble).sum / trees.size
      val skews = trees.map { t =>
        val d = t.insertDistribution
        if (d.isEmpty || d.sum == 0) 0.0 else d.max.toDouble / (d.sum.toDouble / d.length)
      }
      val probe = replayProbes(pimR, wl, input.diff, spec)
      singleThreadedIndex(spec, input) ++ Map(
        "index.probe_entries"       -> probe("entries"),
        "index.probe_useful_ratio"  -> probe("useful"),
        "index.ts_probe_ns"         -> probe("ts_ns"),
        "index.ti_probe_ns"         -> probe("ti_ns"),
        "index.merge_count"         -> mergeCount.toDouble,
        "index.merge_ms"            -> ratio(mergeNanos / 1e6, mergeCount),
        "index.merge_ns_per_elem"   -> ratio(mergeNanos, mergeCount * tsSize),
        "index.partitions"          -> trees.map(_.currentState.numPartitions).max.toDouble,
        "index.insert_skew"         -> skews.max,
        "index.memory_mb"           -> trees.map(_.memoryBytes).sum / 1048576.0,
        "join.task_latency_us"      ->
          ratio((join.latencySumNanos.get - lat0._1) / 1e3, join.latencyCount.get - lat0._2),
        "join.results_per_tuple"    -> sink.timedCount.toDouble / timedTuples,
        "core.bytes_loaded_per_tuple" -> (Telemetry.bytesLoaded.sum - loaded0).toDouble / timedTuples,
        "core.bytes_stored_per_tuple" -> (Telemetry.bytesStored.sum - stored0).toDouble / timedTuples,
        "jvm.gc_pause_ms_per_s"     -> (GcWatch.collectionMs - gc0) / secs,
        "jvm.alloc_bytes_per_tuple" -> alloc.toDouble / timedTuples,
      )
    }
    Round(warmup, traced, input.diff, sink.count, sink.checksum, timedTuples, genNs,
          sink.startNanos - t0, timedNs, cpuNs, sink.gaps, layer, at0, at1)
  }

  /** The index layer alone: `SingleThreadedJoin.ibwj` over the prefill and
    * the first 2^20 timed arrivals of the same stream, on the single-threaded
    * PIM-Tree (D_I = 2, m = 1/8) wrapped in the timing decorator. The
    * parallel join cannot be decorated: it detects merging by class.
    */
  def singleThreadedIndex(spec: Spec, input: Input): Map[String, Double] = {
    val n      = math.min(input.wl.length, input.timedFrom + (1 << 20))
    val wl     = repro.StreamGen.Workload(input.wl.fromR.take(n), input.wl.keys.take(n))
    val timing = Seq(new TimingIndex(spec.mkSingleThreadedIndex()),
                     new TimingIndex(spec.mkSingleThreadedIndex()))
    val sink   = new BenchSink(1 << 20, input.rFrom, input.sFrom, 16, () => timing.foreach(_.reset()))
    SingleThreadedJoin.ibwj(wl, spec.w, spec.w, input.diff, timing(0), timing(1), sink, spec.selfJoin,
                            timedFrom = input.timedFrom)
    def sum(f: TimingIndex => Long): Double = timing.map(f).sum.toDouble
    Map(
      "index.probe_ns"              -> ratio(sum(_.probeNanos), sum(_.probes)),
      "index.insert_ns"             -> ratio(sum(_.insertNanos), sum(_.inserts)),
      "index.maintain_ns_per_tuple" -> ratio(sum(_.maintainNanos), n - input.timedFrom))
  }

  /** Replays a fixed probe sample against the final generation of a
    * PIM-Tree: `T_S` alone, then the `T_I` partitions a probe walks.
    * Entries are counted over both; useful ones are inside the window that
    * ends at the stream's last tuple.
    */
  def replayProbes(tree: PIMTree, wl: repro.StreamGen.Workload, diff: Int,
                   spec: Spec): Map[String, Double] = {
    val st      = tree.currentState
    val n       = math.min(4096, wl.length)
    val keys    = java.util.Arrays.copyOfRange(wl.keys, wl.length - n, wl.length)
    val streamLen = if (spec.selfJoin) wl.length else wl.fromR.count(identity)
    val validFrom = math.max(0, streamLen - spec.w)
    val out     = new LongVec(256)
    var entries = 0L; var useful = 0L
    def ts(count: Boolean): Unit = {
      var i = 0
      while (i < n) {
        val k = keys(i)
        out.clear()
        st.ts.rangeSearch(math.max(0, k - diff), k + diff, out)
        if (count) countOut()
        i += 1
      }
    }
    def ti(count: Boolean): Unit = {
      var i = 0
      while (i < n) {
        val k = keys(i); val lo = math.max(0, k - diff); val hi = k + diff
        out.clear()
        var p = st.ts.nodeIndexAtLevel(lo, st.level)
        var done = false
        while (!done) {
          st.subs(p).rangeSearch(lo, hi, out)
          if (hi <= st.upper(p) || p == st.numPartitions - 1) done = true else p += 1
        }
        if (count) countOut()
        i += 1
      }
    }
    def countOut(): Unit = {
      var j = 0
      while (j < out.size) { if (repro.core.Elem.ref(out(j)) >= validFrom) useful += 1; j += 1 }
      entries += out.size
    }
    def timeIt(f: => Unit): Double =
      median((0 until 9).map { _ => val t = System.nanoTime(); f; (System.nanoTime() - t).toDouble / n })
    ts(count = true); ti(count = true)
    Map("ts_ns" -> timeIt(ts(count = false)), "ti_ns" -> timeIt(ti(count = false)),
        "entries" -> entries.toDouble / n, "useful" -> ratio(useful, entries))
  }

  /** Runs `body` on its own thread; gives up after the deadline, because a
    * failed parallel worker can leave the join waiting forever.
    */
  private def withDeadline[A](name: String, ms: Long)(body: => A): Either[String, A] = {
    @volatile var result: Either[String, A] = Left(s"$name: deadline of $ms ms overrun")
    val t = new Thread(() => {
      result = try Right(body) catch { case e: Throwable => Left(s"$name: $e") }
    }, "perfbench-round")
    t.setDaemon(true)
    t.start()
    t.join(ms)
    if (t.isAlive) Left(s"$name: deadline of $ms ms overrun") else result
  }

  // ----------------------------------------------------------------- main

  def main(args: Array[String]): Unit = {
    val bootMs = GcWatch.uptimeMs
    GcWatch.install()
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val spec    = Workloads.byName(opts("workload"))
    val seed    = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace   = opts("trace") == "1"
    val workDir = Paths.get(opts.getOrElse("work-dir", "."))
    val timed   = Workloads.timedArrivals(spec, seconds, Rounds)
    // (warmup, traced) per round. The warm-up round lets the JIT compile
    // the join before any round is timed. The traced run brackets its
    // traced round with untraced ones, which gives the tracing overhead
    // from one JVM.
    val plan = (true, false) +: (if (trace) Seq((false, false), (false, true), (false, false))
                                 else Seq.fill(Rounds)((false, false)))

    val rounds = Vector.newBuilder[Round]
    val errors = Vector.newBuilder[String]
    var jfr: Map[String, Double] = Map.empty
    GcWatch.recording = true
    plan.zipWithIndex.foreach { case ((warmup, traced), i) =>
      System.gc() // every round starts from the same heap: its predecessor's garbage is gone
      val rec = if (traced) JfrTrace.start() else null
      withDeadline(s"round $i", RoundDeadlineMs)(runRound(spec, seed, timed, warmup, traced)) match {
        case Right(r) =>
          rounds += r
          if (rec != null) {
            rec.stop()
            val file = workDir.resolve(s"trace-${spec.name}-$seed.jfr")
            rec.dump(file)
            jfr = JfrTrace.analyse(file, "ibwj-worker-", r.from, r.to)
            Files.deleteIfExists(file)
          }
        case Left(err) =>
          errors += err
          report(spec, seed, timed, bootMs, rounds.result(), errors.result(), None, 0L, Map.empty, Nil)
          Runtime.getRuntime.halt(0) // leave stuck workers behind; the report is out
      }
      if (rec != null) rec.close()
    }
    GcWatch.recording = false
    val heapPeak = GcWatch.peakAfterGcBytes

    val done = rounds.result()
    val input = Workloads.generate(spec, seed, timed)
    val reference = Reference.compute(input.wl, spec.w, input.diff, spec.selfJoin,
                                      Runtime.getRuntime.availableProcessors)
    val (stream, checks) =
      if (!trace) (Map.empty[String, Double], Nil)
      else try {
        val (metrics, resultsMatch) = StreamLayer.measure(seed, workDir)
        (metrics, Seq("stream" -> resultsMatch))
      } catch { case e: Exception => errors += s"stream layer: $e"; (Map.empty[String, Double], Nil) }
    report(spec, seed, timed, bootMs, done, errors.result(), Some(reference), heapPeak, jfr ++ stream, checks)
    System.exit(0)
  }

  private def report(spec: Spec, seed: Long, timed: Int, bootMs: Long, rounds: Seq[Round],
                     errors: Seq[String], reference: Option[Reference.Result], heapPeakBytes: Long,
                     layerExtra: Map[String, Double], checks: Seq[(String, Boolean)]): Unit = {
    val plain  = rounds.filter(r => !r.warmup && !r.traced)
    val traced = rounds.find(_.traced)
    val endToEnd: Seq[(String, Double)] = if (plain.isEmpty) Nil else Seq(
      "throughput_tps"    -> median(plain.map(_.throughput)),
      "cpu_ns_per_tuple"  -> median(plain.map(r => r.cpuNs.toDouble / r.timedTuples)),
      "emit_gap_p50_ms"   -> median(plain.map(r => percentile(r.gaps, 0.50) / 1e6)),
      "emit_gap_p99_ms"   -> median(plain.map(r => percentile(r.gaps, 0.99) / 1e6)),
      "heap_live_peak_mb" -> heapPeakBytes / 1048576.0,
      "setup_s"           -> (bootMs / 1e3 + median(rounds.map(_.setupNs / 1e9))),
    )
    val perLayer: Seq[(String, Double)] = traced.toSeq.flatMap { t =>
      val overhead = ratio(t.throughput, median(plain.map(_.throughput)))
      (t.layer ++ layerExtra ++ Map(
        "streamgen.gen_ms" -> median(rounds.map(_.genNs / 1e6)),
        "trace_overhead"   -> overhead)).toSeq.sortBy(_._1)
    }
    val rt = Runtime.getRuntime
    val out = ListMap(
      "workload"   -> spec.name,
      "seed"       -> seed,
      "params"     -> ListMap(spec.params ++ Seq("diff" -> rounds.headOption.map(r => Int.box(r.diff)).orNull,
        "timed_arrivals_per_round" -> timed, "rounds" -> rounds.size): _*),
      "provenance" -> ListMap(
        "nproc" -> rt.availableProcessors, "max_heap_mb" -> rt.maxMemory / 1048576,
        "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
        "jvm_flags" -> String.join(" ", ManagementFactory.getRuntimeMXBean.getInputArguments)),
      "rounds" -> rounds.map(r => ListMap(
        "warmup" -> r.warmup, "traced" -> r.traced, "count" -> r.count, "checksum" -> r.checksum,
        "throughput_tps" -> r.throughput, "setup_s" -> r.setupNs / 1e9, "timed_s" -> r.timedNs / 1e9,
        "gaps" -> r.gaps.length, "gap_p50_ms" -> percentile(r.gaps, 0.50) / 1e6,
        "gap_p99_ms" -> percentile(r.gaps, 0.99) / 1e6)),
      "reference"  -> reference.map(r => ListMap("count" -> r.count, "checksum" -> r.checksum)).orNull,
      "checks"     -> checks.map(c => Map(c)),
      "errors"     -> errors,
      "end_to_end" -> ListMap(endToEnd: _*),
      "per_layer"  -> ListMap(perLayer: _*),
    )
    println("PERFBENCH_JSON " + new ObjectMapper().registerModule(DefaultScalaModule).writeValueAsString(out))
    System.out.flush()
  }
}
