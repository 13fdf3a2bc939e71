#!/usr/bin/env python3
"""Attribute sample_prof samples to functions.

    python3 tools/sample_prof/report.py sample_prof.<pid> [--top N] [--focus F]

Reads the file sample_prof.so wrote (the process's memory map, then one
line of addresses per sample, leaf first), resolves the program's
addresses with addr2line (inlined frames included) and shared-library
addresses with their dynamic symbols, and prints three tables:

  flat       samples whose innermost frame, inlined or not, is the function
  inclusive  samples with the function anywhere on the stack (once each)
  library    samples that ended in a shared library, by the library and
             the first frame outside it: which program code the libc,
             libm or libstdc++ time was spent for

--focus F keeps only the samples with a function whose name contains F
on the stack.
"""

import argparse
import bisect
import collections
import struct
import subprocess
import sys


def load_segments(path):
    """PT_LOAD (file offset, vaddr, size) triples of an ELF64 file."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def dynamic_symbols(obj, addrs):
    """addr -> demangled dynamic symbol containing it, for the
    addresses of \p addrs that fall inside one."""
    out = subprocess.run(["nm", "-D", "-S", "-C", "--defined-only", obj],
                         capture_output=True, text=True).stdout.splitlines()
    syms = []
    for line in out:
        fields = line.split(None, 3)
        if len(fields) == 4 and fields[2] in "TtWwi":
            name = fields[3].split("@")[0]  # drop the symbol version
            syms.append((int(fields[0], 16), int(fields[1], 16), name))
    syms.sort()
    starts = [s[0] for s in syms]
    found = {}
    for a in addrs:
        i = bisect.bisect_right(starts, a) - 1
        if i >= 0 and a < syms[i][0] + syms[i][1]:
            found[a] = syms[i][2]
    return found


def parse(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("map "):
                fields = line.split()
                if len(fields) < 7 or "x" not in fields[2]:
                    continue
                lo, hi = (int(x, 16) for x in fields[1].split("-"))
                maps.append((lo, hi, int(fields[3], 16), fields[6]))
            elif line.startswith("s"):
                samples.append([int(x, 16) for x in line.split()[1:]])
    return maps, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--focus", default="")
    args = ap.parse_args()
    maps, samples = parse(args.profile)
    if not samples:
        sys.exit("report.py: no samples in " + args.profile)

    # Runtime address -> (object path, ELF vaddr). Return addresses point
    # after the call, so caller frames are looked up one byte earlier.
    def locate(addr):
        for lo, hi, off, obj in maps:
            if lo <= addr < hi:
                return obj, addr - lo + off
        return None, addr

    segs, wanted, where = {}, collections.defaultdict(set), {}
    for stack in samples:
        for depth, addr in enumerate(stack):
            key = addr if depth == 0 else addr - 1
            if key in where:
                continue
            obj, off = locate(key)
            if obj is None:
                where[key] = (None, 0)
                continue
            if obj not in segs:
                try:
                    segs[obj] = load_segments(obj)
                except OSError:
                    segs[obj] = []
            vaddr = next((off - o + v for o, v, n in segs[obj] if o <= off < o + n), off)
            where[key] = (obj, vaddr)
            wanted[obj].add(vaddr)

    # addr2line -a prints each address, then one (function, file:line)
    # pair per frame of its inline chain, innermost first. Stripped
    # shared libraries keep only dynamic symbols, and addr2line names an
    # internal function (say, an ifunc variant of memchr) after the
    # nearest exported one, so there a name counts only when the address
    # lies inside that symbol's extent.
    names = {}  # (obj, vaddr) -> inline chain
    main_obj = maps[0][3] if maps else None
    for obj, addrs in wanted.items():
        if obj != main_obj:
            names.update(((obj, a), [name]) for a, name in
                         dynamic_symbols(obj, sorted(addrs)).items())
            continue
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
            input="\n".join(hex(a) for a in sorted(addrs)),
            capture_output=True, text=True).stdout.splitlines()
        i, chain = 0, None
        while i < len(out):
            if out[i].startswith("0x"):
                chain = names.setdefault((obj, int(out[i], 16)), [])
                i += 1
            elif chain is not None:
                chain.append(out[i])
                i += 2
            else:
                i += 1

    def frames(stack):
        """Function names of one sample, innermost first, plus each
        frame's object."""
        out = []
        for depth, addr in enumerate(stack):
            key = addr if depth == 0 else addr - 1
            obj, vaddr = where[key]
            chain = names.get((obj, vaddr)) or []
            chain = [c for c in chain if c != "??"]
            base = obj.rsplit("/", 1)[-1] if obj else "?"
            if not chain:
                chain = ["?? (%s)" % base]
            out.extend((name, obj) for name in chain)
        return out

    flat, inclusive, library = (collections.Counter() for _ in range(3))
    total = 0
    for stack in samples:
        fr = frames(stack)
        if not any(args.focus in name for name, _ in fr):
            continue
        total += 1
        flat[fr[0][0]] += 1
        for name in {name for name, _ in fr}:
            inclusive[name] += 1
        leaf_obj = fr[0][1]
        if leaf_obj and leaf_obj != main_obj:
            caller = next((name for name, obj in fr if obj == main_obj), "?")
            library["%s <- %s" % (leaf_obj.rsplit("/", 1)[-1], caller)] += 1

    for title, table in (("flat", flat), ("inclusive", inclusive),
                         ("library by caller", library)):
        print("== %s (%d samples, 1 ms of CPU each) ==" % (title, total))
        for name, n in table.most_common(args.top):
            print("%6.2f%% %7d  %s" % (100.0 * n / total, n, name))
        print()


if __name__ == "__main__":
    main()
