package repro.perfbench

import repro.StreamGen
import repro.index.BPlusWindowIndex
import repro.join.{CountingSink, ParallelIBWJ, SingleThreadedJoin}

/** The benchmark's JVM-side checks, run by `test_perfbench.py`:
  *  - the timing decorator leaves (count, checksum) unchanged;
  *  - the sliced reference equals one unsliced B+-Tree pass, two-way and
  *    self-join;
  *  - the benchmark sink agrees with `CountingSink`.
  * Exits 0 when every check holds, 1 otherwise.
  */
object SelfTest {
  private var failures = 0

  private def check(name: String, ok: Boolean, detail: => String): Unit = {
    println(s"${if (ok) "ok  " else "FAIL"} $name${if (ok) "" else s": $detail"}")
    if (!ok) failures += 1
  }

  def main(args: Array[String]): Unit = {
    val w    = 1 << 10
    val n    = 24000
    val wl   = StreamGen.twoWay(StreamGen.uniform(n / 2, seed = 3), StreamGen.uniform(n / 2, seed = 4))
    val diff = StreamGen.diffForMatchRate(w, 2.0)
    val spec = Workloads.byName("parallel_twoway").copy(w = w)

    def bplusRef(wl: StreamGen.Workload, selfJoin: Boolean, diff: Int): (Long, Long) = {
      val s = new CountingSink
      SingleThreadedJoin.ibwj(wl, w, w, diff, new BPlusWindowIndex(16), new BPlusWindowIndex(16), s, selfJoin)
      (s.count, s.checksum)
    }

    // 1. decorator transparency
    val bare = new CountingSink
    SingleThreadedJoin.ibwj(wl, w, w, diff, spec.mkSingleThreadedIndex(), spec.mkSingleThreadedIndex(), bare)
    val tr = new TimingIndex(spec.mkSingleThreadedIndex())
    val ts = new TimingIndex(spec.mkSingleThreadedIndex())
    val timed = new CountingSink
    SingleThreadedJoin.ibwj(wl, w, w, diff, tr, ts, timed)
    check("timing decorator keeps (count, checksum)",
          (bare.count, bare.checksum) == (timed.count, timed.checksum) && bare.count > 0,
          s"bare=${(bare.count, bare.checksum)} decorated=${(timed.count, timed.checksum)}")
    check("timing decorator counts probes and entries",
          tr.probes + ts.probes == n && tr.entries + ts.entries >= bare.count,
          s"probes=${tr.probes + ts.probes} entries=${tr.entries + ts.entries}")

    // 2. sliced reference == unsliced reference
    val whole = bplusRef(wl, selfJoin = false, diff)
    val sliced = Reference.compute(wl, w, diff, selfJoin = false, threads = 4)
    check("sliced two-way reference", whole == ((sliced.count, sliced.checksum)),
          s"whole=$whole sliced=$sliced")
    check("reference matches the PIM-Tree join", whole == ((bare.count, bare.checksum)),
          s"bplus=$whole pim=${(bare.count, bare.checksum)}")
    val keys   = StreamGen.shiftingGaussian(0, n, 0, 4.0, seed = 5)
    val selfWl = StreamGen.selfJoin(keys)
    val selfDiff = repro.bench.Harness.calibrateDiff(keys, w, 8.0)
    val selfWhole  = bplusRef(selfWl, selfJoin = true, selfDiff)
    val selfSliced = Reference.compute(selfWl, w, selfDiff, selfJoin = true, threads = 3)
    check("sliced self-join reference", selfWhole == ((selfSliced.count, selfSliced.checksum)),
          s"whole=$selfWhole sliced=$selfSliced")

    // 3. benchmark sink agrees with CountingSink on the parallel join
    val input = Input(wl, diff, timedFrom = 2 * w, selfJoin = false)
    var started = 0
    val sink = new BenchSink(64, input.rFrom, input.sFrom, 16, () => started += 1)
    new ParallelIBWJ(wl, w, w, diff, spec.mkIndex(), spec.mkIndex(), 4, 8,
                     timedFrom = input.timedFrom).run(sink)
    check("bench sink counts like CountingSink", (sink.count, sink.checksum) == whole,
          s"sink=${(sink.count, sink.checksum)} reference=$whole")
    check("bench sink sees the timed segment start once, with gaps",
          started == 1 && sink.timedCount < sink.count && sink.gaps.length == sink.timedCount / 64,
          s"started=$started timed=${sink.timedCount} gaps=${sink.gaps.length}")

    System.exit(if (failures == 0) 0 else 1)
  }
}
