package repro.perfbench

import repro.StreamGen.Workload
import repro.index.BPlusWindowIndex
import repro.join.SingleThreadedJoin

/** The correctness reference: `SingleThreadedJoin.ibwj` over a classic
  * B+-Tree per window, on the same generated stream as the run.
  *
  * The stream is cut into `threads` slices joined concurrently. A slice
  * starting at arrival `a` is replayed from an earlier arrival at which
  * both streams still have at least w tuples before `a` (its warm-up), so
  * every window its own arrivals probe is complete; only pairs produced
  * by its own arrivals are counted, under global sequence numbers. The
  * slices' (count, checksum) add up to the whole stream's.
  */
object Reference {

  final case class Result(count: Long, checksum: Long)

  def compute(wl: Workload, w: Int, diff: Int, selfJoin: Boolean, threads: Int): Result = {
    val n      = wl.length
    val bounds = (0 to threads).map(c => (n.toLong * c / threads).toInt)
    // rBefore(i) = R arrivals in [0, i); S arrivals are i - rBefore(i)
    val rBefore = new Array[Int](n + 1)
    var i = 0
    while (i < n) { rBefore(i + 1) = rBefore(i) + (if (wl.fromR(i) || selfJoin) 1 else 0); i += 1 }
    def sBefore(j: Int): Int = if (selfJoin) rBefore(j) else j - rBefore(j)

    val results = new Array[Result](threads)
    val failure = new java.util.concurrent.atomic.AtomicReference[Throwable]
    val workers = (0 until threads).map { c =>
      val t = new Thread(() => {
        try {
          val a = bounds(c); val b = bounds(c + 1)
          var start = a
          while (start > 0 &&
                 (rBefore(a) - rBefore(start) < w || sBefore(a) - sBefore(start) < w))
            start -= 1
          val slice = Workload(java.util.Arrays.copyOfRange(wl.fromR, start, b),
                               java.util.Arrays.copyOfRange(wl.keys, start, b))
          val sink = new SliceSink(rBefore(start), sBefore(start),
                                   rBefore(a) - rBefore(start), sBefore(a) - sBefore(start))
          SingleThreadedJoin.ibwj(slice, w, w, diff, new BPlusWindowIndex(16),
                                  new BPlusWindowIndex(16), sink, selfJoin)
          results(c) = Result(sink.count, sink.checksum)
        } catch { case e: Throwable => failure.compareAndSet(null, e) }
      }, s"perfbench-reference-$c")
      t.start()
      t
    }
    workers.foreach(_.join())
    if (failure.get != null) throw failure.get
    Result(results.map(_.count).sum, results.map(_.checksum).sum)
  }
}
