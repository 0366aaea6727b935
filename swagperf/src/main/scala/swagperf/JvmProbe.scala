package swagperf

import java.lang.management.ManagementFactory
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import scala.jdk.CollectionConverters._

/** JVM-level observations: GC pauses (one notification per collection),
  * JIT compile time, allocated bytes and live heap.
  */
object JvmProbe {
  private val pauses = new java.util.concurrent.ConcurrentLinkedQueue[java.lang.Long]() // µs

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        // Concurrent cycles of G1 run beside the program; only pauses stop it.
        if (!info.getGcName.contains("Concurrent")) pauses.add(info.getGcInfo.getDuration * 1000L)
      }
  }

  def install(): Unit =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
      case _ =>
    }

  def collectorNames: Seq[String] = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).toSeq

  /** Snapshot of the counters a phase is measured between. */
  final case class Mark(pauseCount: Int, jitMs: Long)

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val jit = ManagementFactory.getCompilationMXBean

  /** Bytes allocated by every live thread so far. Spark's task threads
    * are pooled and live through a run, so a difference of two readings
    * is the phase's allocation.
    */
  def allocatedBytes: Long = threads.getTotalThreadAllocatedBytes

  def threadAllocatedBytes: Long = threads.getCurrentThreadAllocatedBytes

  def mark(): Mark = Mark(pauses.size, jit.getTotalCompilationTime)

  /** GC pauses (ms) recorded since `m`. Notifications arrive on a JMX
    * thread shortly after each pause, so callers wait briefly first.
    */
  def pausesSince(m: Mark): Seq[Double] = {
    Thread.sleep(100)
    pauses.asScala.drop(m.pauseCount).map(_.toDouble / 1000.0).toSeq
  }

  def jitMsSince(m: Mark): Double = (jit.getTotalCompilationTime - m.jitMs).toDouble

  /** Live heap after full collections: heap in use once two consecutive
    * System.gc() calls agree to within 1%, up to five attempts.
    */
  def liveHeapBytes(): Long = {
    val mem = ManagementFactory.getMemoryMXBean
    var prev = Long.MaxValue
    var used = 0L
    var i = 0
    var settled = false
    while (i < 5 && !settled) {
      System.gc()
      used = mem.getHeapMemoryUsage.getUsed
      settled = math.abs(prev - used) <= used / 100
      prev = used
      i += 1
    }
    used
  }

  /** Milliseconds from JVM start until now (JVM start-up and class loading). */
  def uptimeMs: Long = ManagementFactory.getRuntimeMXBean.getUptime

  def inputArguments: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
}

/** A fixed piece of CPU work that is not part of the program under test:
  * ten sorts of a 16k-int array on each of `threads` threads at once,
  * ~15 ms.
  *
  * The machine is a few vCPUs of a shared host whose speed shifts by up
  * to half for seconds to minutes at a time, and the program's speed moves
  * with the probe's. Each end-to-end timing is therefore multiplied by
  * `timeScale` of the probe read next to it: it reports the time the
  * program would have taken on a host where the probe takes
  * `referenceNs`. Every run also reports the probe's times (`host.*`) and
  * its unscaled end-to-end figures (`raw.*`).
  */
final class HostProbe(threads: Int, val referenceNs: Double) {
  private val base = Array.tabulate(1 << 14)(i => Mix.value(7, 0, i, 0, 1 << 30))
  private val bufs = Array.fill(threads)(new Array[Int](1 << 14))
  private val pool =
    if (threads == 1) null
    else java.util.concurrent.Executors.newFixedThreadPool(threads, (r: Runnable) => {
      val t = new Thread(r, "host-probe"); t.setDaemon(true); t
    })
  private val tasks = new java.util.ArrayList[java.util.concurrent.Callable[Int]]()
  (0 until threads).foreach(k => tasks.add(() => sorts(k)))

  private def sorts(k: Int): Int = {
    var x = 0
    var r = 0
    while (r < 10) {
      System.arraycopy(base, 0, bufs(k), 0, base.length)
      java.util.Arrays.sort(bufs(k))
      x += bufs(k)(r)
      r += 1
    }
    x
  }

  /** ns the probe took now. */
  def time(): Long = {
    val t0 = System.nanoTime()
    if (pool == null) sorts(0) else pool.invokeAll(tasks)
    System.nanoTime() - t0
  }

  /** Factor that takes a time measured next to a probe of `probeNs` to
    * the reference host speed.
    */
  def timeScale(probeNs: Double): Double = referenceNs / probeNs
}

object HostProbe {
  /** For a workload that runs on one thread (the tree rounds): their
    * times follow this probe's (correlation 0.94 over 10-second buckets).
    * 15 ms is its time on a 4-vCPU Intel Xeon KVM guest in the slower,
    * more common state.
    */
  lazy val oneCpu = new HostProbe(1, 15.0e6)

  /** For a workload that keeps every CPU busy (Spark's task slots, its
    * driver and the JIT): its batch times follow this probe's far more
    * closely than the one-thread probe's. 17 ms is its usual time on the
    * same guest.
    */
  lazy val allCpus = new HostProbe(Runtime.getRuntime.availableProcessors, 17.0e6)

  /** Median of the readings within `half` places of reading i. */
  def around(readings: Array[Long], i: Int, half: Int = 4): Double =
    Stats.median(readings.slice(math.max(0, i - half), math.min(readings.length, i + half + 1)).toSeq.map(_.toDouble))
}
