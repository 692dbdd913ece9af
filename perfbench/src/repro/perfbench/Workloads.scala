package repro.perfbench

import repro.StreamGen
import repro.StreamGen.Workload
import repro.bench.Harness
import repro.index.PIMTree

/** One named benchmark workload: the generated stream geometry and the
  * `ParallelIBWJ` configuration that runs over it.
  *
  * @param w            window size of each stream (count-based)
  * @param sigmaS       target match rate per probe
  * @param drift        mean drift of the shifting Gaussian, in key-space
  *                     fractions per window (0 = two-way uniform keys)
  * @param threads      worker threads
  * @param gapBlock     K: one emit-gap stamp per K timed results; a block
  *                     spans several ms, so a stall lengthens a block and
  *                     the p99 does not flip on how many blocks hold one
  * @param nominalTps   throughput the timed input is sized from; the input
  *                     size is fixed per (workload, seconds), so a faster
  *                     program simply finishes the same work sooner
  */
final case class Spec(
    name: String,
    w: Int,
    sigmaS: Double,
    drift: Double,
    threads: Int,
    taskSize: Int,
    gapBlock: Int,
    nominalTps: Double,
) {
  def selfJoin: Boolean = drift > 0
  /** untimed arrivals that fill the windows and trigger the first merges */
  def prefill: Int = if (selfJoin) (1.2 * w).toInt else (2.2 * w).toInt

  /** A fresh index for one stream's window: D_I = 3, m = 1, with the finer
    * `T_S` geometry the parallel runs use (Harness.pimPar).
    */
  def mkIndex(): PIMTree = new PIMTree(3, w, ibFanout = 16, ibLeafSize = 16)

  /** The single-threaded index of the traced run's index-layer replay:
    * D_I = 2, m = 1/8.
    */
  def mkSingleThreadedIndex(): PIMTree = new PIMTree(2, math.max(1, w / 8))

  def params: Seq[(String, Any)] = Seq(
    "w" -> w, "sigma_s" -> sigmaS, "drift_per_window" -> drift, "threads" -> threads,
    "task_size" -> taskSize, "gap_block_k" -> gapBlock, "self_join" -> selfJoin,
    "prefill" -> prefill, "nominal_tps" -> nominalTps,
    "index" -> "PIMTree(D_I=3, m=1, T_S fanout/leaf 16)",
  )
}

/** A generated input: the arrival sequence, the band half-width and the
  * arrival index at which timing starts.
  */
final case class Input(wl: Workload, diff: Int, timedFrom: Int, selfJoin: Boolean) {
  /** R- and S-stream sequence numbers of the first timed arrival (both
    * the probe seq for a self-join).
    */
  lazy val (rFrom, sFrom): (Int, Int) =
    if (selfJoin) (timedFrom, timedFrom)
    else {
      var r = 0; var i = 0
      while (i < timedFrom) { if (wl.fromR(i)) r += 1; i += 1 }
      (r, timedFrom - r)
    }
}

object Workloads {
  val KeySpace: Int = StreamGen.DefaultKeySpace

  val all: Seq[Spec] = Seq(
    Spec("parallel_twoway", w = 1 << 18, sigmaS = 2, drift = 0, threads = 4, taskSize = 8,
         gapBlock = 1 << 15, nominalTps = 1.5e6),
    Spec("parallel_self_drift", w = 1 << 18, sigmaS = 8, drift = 0.4, threads = 4, taskSize = 8,
         gapBlock = 1 << 16, nominalTps = 1.8e6),
  )

  def byName(name: String): Spec =
    all.find(_.name == name).getOrElse(sys.error(s"unknown workload '$name'"))

  /** Timed arrivals per round for a run of `seconds` split over `rounds`. */
  def timedArrivals(spec: Spec, seconds: Double, rounds: Int): Int =
    math.max(spec.gapBlock, (spec.nominalTps * seconds / rounds).toInt)

  /** Deterministic input for (spec, seed): same seed, same arrays. */
  def generate(spec: Spec, seed: Long, timed: Int): Input = {
    val total = spec.prefill + timed
    if (spec.selfJoin) {
      // one shifting Gaussian whose mean drifts `drift` of the key space
      // every window, for the prefill and the whole timed segment
      val r    = spec.drift * total / spec.w
      val keys = StreamGen.shiftingGaussian(0, total, 0, r, keySpace = KeySpace, seed = seed)
      val diff = Harness.calibrateDiff(keys, spec.w, spec.sigmaS)
      Input(StreamGen.selfJoin(keys), diff, spec.prefill, selfJoin = true)
    } else {
      val r  = StreamGen.uniform(total / 2 + 1, KeySpace, seed)
      val s  = StreamGen.uniform(total - total / 2 + 1, KeySpace, seed + 100003)
      val wl = StreamGen.twoWay(r, s)
      Input(Workload(wl.fromR.take(total), wl.keys.take(total)),
            StreamGen.diffForMatchRate(spec.w, spec.sigmaS, KeySpace), spec.prefill,
            selfJoin = false)
    }
  }
}
