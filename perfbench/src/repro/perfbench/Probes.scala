package repro.perfbench

import repro.core.{Elem, LongVec}
import repro.index.WindowIndex
import repro.join.ResultSink

/** Result checksum shared by every sink here; the same order-insensitive
  * formula as `repro.join.CountingSink`, so runs and references compare.
  */
object Checksum {
  @inline def of(rSeq: Int, sSeq: Int): Long = (rSeq.toLong * 1000003L) ^ (sSeq.toLong * 998244353L)
}

/** The benchmark's own sink: counts and checksums every result, notices
  * the first result produced by a timed arrival (the start of the timed
  * segment), and stamps the wall clock once per `k` timed results.
  *
  * A pair belongs to the timed segment iff its later tuple arrived at or
  * after the first timed arrival, i.e. `rSeq >= rFrom || sSeq >= sFrom`.
  * The parallel join calls `emit` only under its propagation lock, so no
  * field here needs to be atomic.
  */
final class BenchSink(k: Int, rFrom: Int, sFrom: Int, expectedStamps: Int,
                      onTimedStart: () => Unit) extends ResultSink {
  require(Integer.bitCount(k) == 1, s"k must be a power of two, got $k")
  private val mask = k - 1L

  var count: Long      = 0
  var checksum: Long   = 0
  var timedCount: Long = 0
  var startNanos: Long = 0
  private var stamps   = new Array[Long](math.max(16, expectedStamps))
  var numStamps: Int   = 0

  override def emit(rSeq: Int, sSeq: Int): Unit = {
    count += 1
    checksum += Checksum.of(rSeq, sSeq)
    if (rSeq >= rFrom || sSeq >= sFrom) {
      if (timedCount == 0) {
        startNanos = System.nanoTime()
        onTimedStart()
      }
      timedCount += 1
      if ((timedCount & mask) == 0) {
        if (numStamps == stamps.length) stamps = java.util.Arrays.copyOf(stamps, numStamps * 2)
        stamps(numStamps) = System.nanoTime()
        numStamps += 1
      }
    }
  }

  /** Wall time between consecutive blocks of k timed results, in ns. */
  def gaps: Array[Long] =
    Array.tabulate(numStamps)(i => stamps(i) - (if (i == 0) startNanos else stamps(i - 1)))
}

/** Counts one slice of a reference join: results are translated from the
  * slice's local sequence numbers to global ones, and only pairs produced
  * by the slice's own arrivals (not its window warm-up) are kept.
  */
final class SliceSink(rOff: Int, sOff: Int, rFrom: Int, sFrom: Int) extends ResultSink {
  var count: Long    = 0
  var checksum: Long = 0
  override def emit(rSeq: Int, sSeq: Int): Unit =
    if (rSeq >= rFrom || sSeq >= sFrom) {
      count += 1
      checksum += Checksum.of(rSeq + rOff, sSeq + sOff)
    }
}

/** Timing decorator for the single-threaded join's indexes: times every
  * probe, insert and maintenance call and counts the entries each probe
  * returns. The index's last `maintain(validFrom)` is exactly the window
  * bound the join filters that index's probe hits with, so the in-window
  * share of returned entries is measured here too.
  *
  * Only for `SingleThreadedJoin`: `ParallelIBWJ` detects merging by the
  * index's class, and a wrapped PIM-Tree would run without merges.
  */
final class TimingIndex(val inner: WindowIndex) extends WindowIndex {
  var probes: Long       = 0
  var probeNanos: Long   = 0
  var entries: Long      = 0
  var useful: Long       = 0
  var inserts: Long      = 0
  var insertNanos: Long  = 0
  var maintains: Long    = 0
  var maintainNanos: Long = 0
  private var validFrom  = 0

  def reset(): Unit = {
    probes = 0; probeNanos = 0; entries = 0; useful = 0
    inserts = 0; insertNanos = 0; maintains = 0; maintainNanos = 0
  }

  override def name: String = inner.name
  override def insert(key: Int, ref: Int): Unit = {
    val t = System.nanoTime()
    inner.insert(key, ref)
    insertNanos += System.nanoTime() - t
    inserts += 1
  }
  override def expire(key: Int, ref: Int): Unit = inner.expire(key, ref)
  override def rangeSearch(lo: Int, hi: Int, out: LongVec): Unit = {
    val before = out.size
    val t      = System.nanoTime()
    inner.rangeSearch(lo, hi, out)
    probeNanos += System.nanoTime() - t
    probes += 1
    var j = before
    while (j < out.size) { if (Elem.ref(out(j)) >= validFrom) useful += 1; j += 1 }
    entries += out.size - before
  }
  override def maintain(validFrom: Int): Unit = {
    this.validFrom = validFrom
    val t = System.nanoTime()
    inner.maintain(validFrom)
    maintainNanos += System.nanoTime() - t
    maintains += 1
  }
  override def size: Int         = inner.size
  override def memoryBytes: Long = inner.memoryBytes
}
