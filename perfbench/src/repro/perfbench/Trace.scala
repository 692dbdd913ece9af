package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Path
import java.time.{Duration, Instant}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import jdk.jfr.Recording
import jdk.jfr.consumer.{RecordedEvent, RecordedFrame, RecordingFile}

/** Heap accounting from GC notifications: the largest heap in use right
  * after an explicit full GC (the benchmark collects at the end of every
  * round, while the round's input, join and indexes are still live), and
  * the bytes each GC freed (which, with the heap in use at both ends of an
  * interval, gives the bytes allocated inside it).
  */
object GcWatch {
  final case class Gc(startMs: Long, freedBytes: Long)

  @volatile var recording: Boolean = false
  @volatile private var peakAfter: Long = 0
  private val gcs = new java.util.concurrent.ConcurrentLinkedQueue[Gc]

  def install(): Unit =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      case em: NotificationEmitter =>
        em.addNotificationListener(new NotificationListener {
          override def handleNotification(n: Notification, hb: AnyRef): Unit =
            if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
              val info   = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
              val gi     = info.getGcInfo
              val before = gi.getMemoryUsageBeforeGc.values.asScala.map(_.getUsed).sum
              val after  = gi.getMemoryUsageAfterGc.values.asScala.map(_.getUsed).sum
              gcs.add(Gc(gi.getStartTime, before - after))
              // only the old-generation half of System.gc(): its young half
              // leaves behind whatever garbage earlier young GCs promoted
              if (recording && info.getGcCause == "System.gc()" && info.getGcAction == "end of major GC" &&
                  after > peakAfter) peakAfter = after
            }
        }, null, null)
      case _ =>
    }

  def peakAfterGcBytes: Long = peakAfter

  /** Bytes freed by GCs that started within [fromMs, toMs] of JVM uptime. */
  def freedBetween(fromMs: Long, toMs: Long): Long =
    gcs.asScala.filter(g => g.startMs >= fromMs && g.startMs <= toMs).map(_.freedBytes).sum

  def heapUsed: Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  def uptimeMs: Long = ManagementFactory.getRuntimeMXBean.getUptime

  /** Total GC collection time so far, over every collector, ms. */
  def collectionMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum
}

/** JFR sampling over one traced round, reduced to per-layer self-time
  * shares and lock-park time per second.
  *
  * Self time of a sample goes to the innermost program frame (helpers in
  * `repro.core` and this benchmark's own frames are skipped), except that
  * anything under a PIM-Tree merge counts as merge.
  */
object JfrTrace {

  val ShareNames: Seq[String] = Seq(
    "join.acquire_share", "join.idle_spin_share", "join.process_share", "join.propagate_share",
    "join.edge_share", "index.ts_share", "index.ti_share", "index.merge_share")

  def start(): Recording = {
    val r = new Recording()
    r.enable("jdk.ExecutionSample").withPeriod(Duration.ofMillis(2))
    r.enable("jdk.ThreadPark").withThreshold(Duration.ofNanos(10000)).withStackTrace()
    r.setToDisk(true)
    r.start()
    r
  }

  private def frames(e: RecordedEvent): Seq[RecordedFrame] =
    Option(e.getStackTrace).map(_.getFrames.asScala.toSeq).getOrElse(Seq.empty)

  private def cls(f: RecordedFrame): String  = f.getMethod.getType.getName
  private def meth(f: RecordedFrame): String = f.getMethod.getName

  private def isMerge(f: RecordedFrame): Boolean =
    cls(f) == "repro.index.PIMTree" && (meth(f).contains("buildMergedState") || meth(f) == "merge")

  /** Layer of one stack, innermost frame first. */
  def classify(fs: Seq[RecordedFrame]): String = {
    if (fs.exists(isMerge)) return "index.merge_share"
    val own = fs.find { f =>
      val c = cls(f)
      c.startsWith("repro.") && !c.startsWith("repro.core.") && !c.startsWith("repro.perfbench.")
    }
    own.map { f =>
      val c = cls(f); val m = meth(f)
      if (c.startsWith("repro.index.ImmutableBPlusTree")) "index.ts_share"
      else if (c.startsWith("repro.index.")) "index.ti_share" // BPlusTree, PIMTree partition locks
      else if (c == "repro.join.ParallelIBWJ") {
        if (m.contains("acquireTask")) "join.acquire_share"
        else if (m.contains("processArrival")) "join.process_share"
        else if (m.contains("tryPropagate")) "join.propagate_share"
        else if (m.contains("Edge")) "join.edge_share"
        else if (m.contains("runMerge")) "index.merge_share"
        else "join.idle_spin_share" // workerLoop's onSpinWait and quiesce
      } else "other"
    }.getOrElse("other")
  }

  /** Shares and park times for samples taken on `threadPrefix` threads
    * between two instants.
    */
  def analyse(file: Path, threadPrefix: String, from: Instant, to: Instant): Map[String, Double] = {
    val events = RecordingFile.readAllEvents(file).asScala
      .filter(e => !e.getStartTime.isBefore(from) && !e.getStartTime.isAfter(to))
    def onThread(e: RecordedEvent, field: String): Boolean = {
      val t = e.getThread(field)
      t != null && Option(t.getJavaName).exists(_.startsWith(threadPrefix))
    }
    val samples = events.filter(e => e.getEventType.getName == "jdk.ExecutionSample" && onThread(e, "sampledThread"))
    val counts  = samples.groupBy(e => classify(frames(e))).map { case (k, v) => k -> v.size }
    val total   = math.max(1, samples.size)
    val shares  = ShareNames.map(n => n -> counts.getOrElse(n, 0).toDouble / total).toMap

    val parks = events.filter(e => e.getEventType.getName == "jdk.ThreadPark" && onThread(e, "eventThread"))
    def parkMs(p: Seq[RecordedFrame] => Boolean): Double =
      parks.filter(e => p(frames(e))).map(_.getDuration.toNanos).sum / 1e6
    val seconds = math.max(1e-9, Duration.between(from, to).toNanos / 1e9)
    val queue = parkMs(_.exists(f => cls(f) == "repro.join.ParallelIBWJ" &&
                                     (meth(f).contains("acquireTask") || meth(f).contains("quiesce"))))
    val part  = parkMs(_.exists(f => cls(f) == "repro.index.PIMTree" &&
                                     (meth(f) == "insert" || meth(f) == "rangeSearch")))
    shares ++ Map(
      "lock.queue_park_ms_per_s"     -> queue / seconds,
      "lock.partition_park_ms_per_s" -> part / seconds,
      "jfr.samples"                  -> samples.size.toDouble,
    )
  }
}
