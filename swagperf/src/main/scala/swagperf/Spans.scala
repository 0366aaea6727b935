package swagperf

import java.io.{BufferedWriter, File, FileOutputStream, OutputStreamWriter}
import java.util.zip.GZIPOutputStream

/** In-memory span recorder for the traced run. A span has a name, a
  * start and end (ns, one clock per run), and the id of the span that
  * caused it (-1 for a top-level span). Spans are kept in primitive
  * columns and written as gzip'd TSV when the run ends.
  */
final class Spans {
  private val names = scala.collection.mutable.ArrayBuffer.empty[String]
  private val nameIds = scala.collection.mutable.HashMap.empty[String, Int]
  private val nameCol = new LongBuf(1 << 16)
  private val parentCol = new LongBuf(1 << 16)
  private val startCol = new LongBuf(1 << 16)
  private val endCol = new LongBuf(1 << 16)

  def nameId(name: String): Int = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })

  def size: Int = nameCol.length

  /** Records a span and returns its id. */
  def add(name: Int, parent: Long, start: Long, end: Long): Long = {
    nameCol += name; parentCol += parent; startCol += start; endCol += end
    nameCol.length - 1L
  }

  /** Per-name totals: (count, total duration ns, total self time ns).
    * Self time is a span's duration minus the durations of its children
    * (children never overlap here: each layer is called in turn).
    */
  def totals: Map[String, (Long, Long, Long)] = {
    val n = size
    val childNs = new Array[Long](n)
    var i = 0
    while (i < n) {
      val p = parentCol(i)
      if (p >= 0) childNs(p.toInt) += endCol(i) - startCol(i)
      i += 1
    }
    val count = new Array[Long](names.length)
    val dur = new Array[Long](names.length)
    val self = new Array[Long](names.length)
    i = 0
    while (i < n) {
      val k = nameCol(i).toInt
      val d = endCol(i) - startCol(i)
      count(k) += 1; dur(k) += d; self(k) += d - childNs(i)
      i += 1
    }
    names.indices.map(k => names(k) -> ((count(k), dur(k), self(k)))).toMap
  }

  /** Durations (ns) of every span with this name. */
  def durations(name: String): Array[Long] = {
    val k = nameIds.getOrElse(name, -1)
    val out = new LongBuf()
    var i = 0
    while (i < size) { if (nameCol(i) == k) out += endCol(i) - startCol(i); i += 1 }
    out.toArray
  }

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new BufferedWriter(new OutputStreamWriter(new GZIPOutputStream(new FileOutputStream(file), 1 << 16)), 1 << 16)
    try {
      w.write("id\tparent\tname\tstart_ns\tend_ns\n")
      var i = 0
      val sb = new java.lang.StringBuilder(64)
      while (i < size) {
        sb.setLength(0)
        sb.append(i).append('\t').append(parentCol(i)).append('\t').append(names(nameCol(i).toInt))
          .append('\t').append(startCol(i)).append('\t').append(endCol(i)).append('\n')
        w.append(sb)
        i += 1
      }
    } finally w.close()
  }
}
