package repro.perfbench

import java.nio.file.Path

import org.apache.spark.sql.SparkSession

import repro.StreamGen
import repro.stream.MicroBatchPimJoin
import repro.stream.MicroBatchPimJoin.{Config, InTuple, PartitionJoiner, Routed}

/** The `stream` layer (MicroBatchPimJoin) at the T18 geometry: 4 key-range
  * partitions, w = 2^14, batches of 4096 two-way uniform arrivals.
  *
  * Routing fan-out and the per-partition joiners are measured by calling
  * `route` and `PartitionJoiner.process` directly; the same batches then
  * run through `processBatch` on a `local[4]` SparkSession, and the share
  * of the per-batch time not spent in the joiners is Spark's overhead.
  */
object StreamLayer {
  val W         = 1 << 14
  val Parts     = 4
  val BatchSize = 4096
  val Batches   = 24
  val WarmBatches = 8

  /** The stream-layer metrics, and whether Spark's result count equals
    * the direct replay's.
    */
  def measure(seed: Long, workDir: Path): (Map[String, Double], Boolean) = {
    val n   = Batches * BatchSize
    val wl  = StreamGen.twoWay(StreamGen.uniform(n / 2, Workloads.KeySpace, seed),
                               StreamGen.uniform(n - n / 2, Workloads.KeySpace, seed + 100003))
    val cfg = Config(Parts, W, W, StreamGen.diffForMatchRate(W, 2.0, Workloads.KeySpace),
                     Workloads.KeySpace)
    val batches: Seq[Seq[InTuple]] = MicroBatchPimJoin.toTuples(wl).grouped(BatchSize).toSeq
    val routed: Seq[Seq[Routed]]   = batches.map(_.flatMap(t => MicroBatchPimJoin.route(t, cfg)))
    val fanout = routed.map(_.size).sum.toDouble / n

    // the rows each partition task sees per batch, sorted as flatMapGroups sorts them
    val perPart: Seq[Seq[Array[Routed]]] =
      routed.map(b => (0 until Parts).map(p => b.filter(_.part == p).sortBy(_.gseq).toArray))
    def replay(): (Long, Long) = {
      val joiners = Array.fill(Parts)(new PartitionJoiner(cfg))
      var results = 0L
      val t0 = System.nanoTime()
      perPart.foreach(_.zipWithIndex.foreach { case (rows, p) => results += joiners(p).process(rows.iterator).size })
      (System.nanoTime() - t0, results)
    }
    replay()
    val (joinerNs, joinerResults) = replay()

    val spark = SparkSession.builder()
      .master(s"local[$Parts]").appName("perfbench-stream")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", Parts.toString)
      .config("spark.local.dir", workDir.resolve("spark").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    try {
      import spark.implicits._
      def runAll(jobId: String, bs: Seq[Seq[InTuple]]): (Long, Long) = {
        var results = 0L
        val t0 = System.nanoTime()
        bs.foreach(b => results += MicroBatchPimJoin.processBatch(spark, jobId, b.toDS(), cfg).collect().length)
        MicroBatchPimJoin.Registry.clear(jobId)
        (System.nanoTime() - t0, results)
      }
      runAll("perfbench-warm", batches.take(WarmBatches))
      val (sparkNs, sparkResults) = runAll("perfbench-timed", batches)
      (Map(
        "stream.route_fanout"         -> fanout,
        "stream.joiner_ns_per_tuple"  -> joinerNs.toDouble / n,
        "stream.spark_overhead_share" -> (1.0 - joinerNs.toDouble / sparkNs),
      ), sparkResults == joinerResults)
    } finally spark.stop()
  }
}
