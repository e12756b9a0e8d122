"""Build file of the benchmark: compiles the program (`src/main/scala`) and
the benchmark's replay program (`perfbench/src`) with the Scala compiler that
ships in the Spark distribution (`$SPARK_HOME`, or the one `spark-submit` on
the PATH belongs to), into `$CARGO_TARGET_DIR` (default `.bench_build`).

    python3 perfbench/build.py          # prints the class directory

The output directory is keyed by a hash of every source file, so an
unchanged tree is not compiled twice and a changed one never reuses stale
classes. Nothing is written outside the build directory.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BENCH_SOURCES = os.path.join(ROOT, "perfbench", "src")


class BuildError(Exception):
    pass


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def spark_jars():
    """`$SPARK_HOME/jars`, else the jars of the first Spark distribution
    whose `bin/spark-submit` is on the PATH (a pip-installed `spark-submit`
    ships no compiler and is skipped)."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        jars = os.path.join(home, "jars")
        if home and glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
            return jars
    raise BuildError("no Spark distribution with a Scala compiler; set SPARK_HOME")


def sources():
    found = []
    for base in (PROGRAM_SOURCES, BENCH_SOURCES):
        files = sorted(glob.glob(os.path.join(base, "**", "*.scala"), recursive=True))
        if not files:
            raise BuildError(f"no Scala sources under {os.path.relpath(base, ROOT)}")
        found += files
    return found


def java_tmp_flags(tmp):
    # keep the JVM's scratch files (and hsperfdata) inside the build directory
    return [f"-Djava.io.tmpdir={tmp}", "-XX:-UsePerfData"]


def build():
    """Compile if needed; return the directory holding the classes."""
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    out = os.path.join(build_dir(), "perfbench", h.hexdigest()[:16])
    classes = os.path.join(out, "classes")
    done = os.path.join(out, "ok")
    if os.path.exists(done):
        return classes
    shutil.rmtree(out, ignore_errors=True)
    tmp = os.path.join(out, "tmp")
    os.makedirs(classes)
    os.makedirs(tmp)
    jars = spark_jars()
    compiler_cp = os.pathsep.join(
        glob.glob(os.path.join(jars, f"scala-{name}-2.13.*.jar"))[0]
        for name in ("compiler", "library", "reflect"))
    cmd = (["java", "-Xmx1g", "-Xss8m"] + java_tmp_flags(tmp)
           + ["-cp", compiler_cp, "scala.tools.nsc.Main", "-nowarn",
              "-classpath", os.path.join(jars, "*"), "-d", classes] + files)
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=800)
    if r.returncode != 0:
        raise BuildError("scalac failed:\n" + r.stdout[-4000:])
    open(done, "w").close()
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build failed: {e}")
