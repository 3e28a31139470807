"""Deterministic substreams, and the draws sosage makes from them.

Every random draw in a run comes from a counter-based generator keyed by
(master seed, phase tag, generation). Streams are independent and
stateless across generations, so resuming a run at any generation derives
exactly the streams the uninterrupted run would have used.

The generator is numpy's: Philox4x64-10 keyed by a SeedSequence. sosage
computes both itself, so numpy is not imported at run time; the test suite
checks the keys and words against numpy's. A `Stream` turns the words into
draws with the arithmetic of numpy's own draw methods, so each draw equals
numpy's on the same words.
"""

from __future__ import annotations

import functools
import math
import struct
import zlib
from binascii import a2b_base64
from typing import Callable, Optional

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1


class Stream:
    """Draws from a source of raw 64-bit words, equal to the draws numpy's
    methods of the same names make on a bit generator of those words.

    `blocks` returns the next words, in order, each time it is called. A
    32-bit draw takes the low half of a fresh word and keeps the high half
    for the next 32-bit draw, as numpy does; draws of whole words leave that
    half alone. The source must not be used by anything else.
    """

    __slots__ = ("_blocks", "_words", "_half")

    def __init__(self, blocks: Callable[[], list[int]]) -> None:
        self._blocks = blocks
        self._words: list[int] = []  # the words not yet drawn, the next one last
        self._half: Optional[int] = None

    def _word(self) -> int:
        if not self._words:
            self._words = self._blocks()[::-1]
        return self._words.pop()

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & MASK32
        self._half = None
        return half

    def _bounded(self, top: int) -> int:
        """An int in [0, top] for top below 2**32, by Lemire's method on
        32-bit draws, as numpy bounds it; top 0 takes no draw."""
        if top == 0:
            return 0
        span = top + 1
        m = self._uint32() * span
        if m & MASK32 < span:
            threshold = (1 << 32) % span
            while m & MASK32 < threshold:
                m = self._uint32() * span
        return m >> 32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of a word."""
        return (self._word() >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, high: int) -> int:
        """An int in range(high), as numpy's `integers(high)` draws it.
        Only the 32-bit bounds sosage needs are replayed."""
        if not 0 < high <= 1 << 32:
            raise ValueError(f"high must be in 1..2**32, got {high}")
        return self._bounded(high - 1)

    def permutation(self, n: int) -> list[int]:
        """range(n) shuffled as numpy's `permutation(n)` shuffles it: from
        the top down, each swap position a 32-bit draw masked to the
        smallest covering power of two and redrawn while it is too large.
        (A list long enough to need 64-bit positions does not fit in memory.)"""
        pool = list(range(n))
        draw = self._uint32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = draw() & mask
            while j > i:
                j = draw() & mask
            pool[i], pool[j] = pool[j], pool[i]
        return pool

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct ints from range(n), as numpy's `choice(n, k,
        replace=False)` draws them, for n up to 2**32. Only numpy's Floyd
        branch is replayed: numpy shuffles range(n) instead when n > 10000
        and k > n // 50, and such a sample is refused."""
        if not 0 <= k <= n <= 1 << 32:
            raise ValueError(f"cannot take {k} distinct items from {n}")
        if n > 10000 and k > n // 50:
            raise ValueError(f"{k} of {n} items lies in numpy's shuffle region, which is not replayed")
        bounded = self._bounded
        # Floyd's algorithm: a repeated draw takes the bound j, which no
        # earlier step can have taken; then the sample is shuffled
        sample: list[int] = []
        taken: set[int] = set()
        for j in range(n - k, n):
            val = bounded(j)
            if val in taken:
                val = j
            taken.add(val)
            sample.append(val)
        for i in range(k - 1, 0, -1):
            j = bounded(i)
            sample[i], sample[j] = sample[j], sample[i]
        return sample

    def normal(self, loc: float, scale: float) -> float:
        """loc + scale * z, with z from numpy's 256-layer ziggurat, whose
        tables end this module."""
        while True:
            r = self._word()
            layer = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * WI[layer]
            if r & 1:
                x = -x
            if rabs < KI[layer]:
                return loc + scale * x
            if layer == 0:
                # the tail beyond R; 1 - u keeps log away from 0
                while True:
                    xx = -INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return loc + scale * (-(R + xx) if (rabs >> 8) & 1 else R + xx)
            elif (FI[layer - 1] - FI[layer]) * self.random() + FI[layer] < math.exp(-0.5 * x * x):
                return loc + scale * x


# ---------------------------------------------------------------------------
# numpy's SeedSequence and Philox4x64-10
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _hash_constants(first: int, multiplier: int, count: int) -> tuple[int, ...]:
    """`first`, then each constant times `multiplier`, `count` + 1 in all:
    SeedSequence's hash n xors its value with constant n and multiplies it
    by constant n + 1."""
    constants = [first]
    for _ in range(count):
        constants.append((constants[-1] * multiplier) & MASK32)
    return tuple(constants)


# each word of the pool mixes into the other three
_POOL_FEEDS = [(src, dst) for src in range(4) for dst in range(4) if src != dst]


def seed_sequence_key(entropy: list[int]) -> tuple[int, int]:
    """numpy's `SeedSequence(entropy).generate_state(2, np.uint64)`, for
    entropy of non-negative ints, as numpy/random/bit_generator.pyx computes
    it: each int becomes its 32-bit words (0 is one word), the words are
    hashed into a pool of four, and the pool is hashed out again."""
    words = []
    for value in entropy:
        words += [(value >> shift) & MASK32 for shift in range(0, value.bit_length(), 32)] or [0]
    words += [0] * (4 - len(words))
    # the pool, then the words past its four, which each mix into all four
    feeds = _POOL_FEEDS + [(src, dst) for src in range(4, len(words)) for dst in range(4)]
    const = _hash_constants(0x43B0D7E5, 0x931E8875, 4 + len(feeds))
    pool = []
    for i in range(4):
        value = ((words[i] ^ const[i]) * const[i + 1]) & MASK32
        pool.append(value ^ (value >> 16))
    pool += words[4:]
    for i, (src, dst) in enumerate(feeds, 4):
        value = ((pool[src] ^ const[i]) * const[i + 1]) & MASK32
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * (value ^ (value >> 16))) & MASK32
        pool[dst] = mixed ^ (mixed >> 16)
    const = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)
    out = []
    for i in range(4):
        value = ((pool[i] ^ const[i]) * const[i + 1]) & MASK32
        out.append(value ^ (value >> 16))
    return out[0] | out[1] << 32, out[2] | out[3] << 32


# Philox4x64-10's multipliers and key bumps
PHILOX_M0, PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
PHILOX_W0, PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B

# counters computed at a time, 4 words each. A stream draws some 50-200
# words in a generation; more lanes cost more per block and waste more words.
LANES = 16
# Each lane holds one counter's state word in 128 bits of an int, so a
# 64x64-bit product stays in its own lane
_ONES = sum(1 << (128 * lane) for lane in range(LANES))
_LOW = MASK64 * _ONES
_FIRST = sum((lane + 1) << (128 * lane) for lane in range(LANES))
# the bumps of rounds 0-9's keys, in every lane
_KEY_BUMPS = [(((r * PHILOX_W0) & MASK64) * _ONES, ((r * PHILOX_W1) & MASK64) * _ONES) for r in range(10)]
# an int's lanes, two words each: the low word, then the high word
_LANE_WORDS = struct.Struct(f"<{2 * LANES}Q").unpack


class Philox:
    """numpy's Philox4x64-10 bit generator with this two-word key, as a
    `Stream` block source: each call returns the next 4 * LANES of the
    words `random_raw` gives, from the counters 1, 2, 3, ..., four words
    per counter.

    A block runs its LANES counters through the rounds together: each of
    the four state words is one int that holds it for every lane. A round
    masks only the two words it will multiply; the other two keep a
    product's high half until a masked word takes them in."""

    __slots__ = ("_round_keys", "_counters")

    def __init__(self, key0: int, key1: int) -> None:
        # a round key is added without reduction: the carry out of a lane's
        # low half only reaches bits that the round masks off
        key0, key1 = key0 * _ONES, key1 * _ONES
        self._round_keys = [(key0 + bump0, key1 + bump1) for bump0, bump1 in _KEY_BUMPS]
        self._counters = _FIRST

    def __call__(self) -> list[int]:
        x0 = self._counters
        self._counters = x0 + LANES * _ONES
        # the counters stay below 2**64, so the other state words start at 0
        keys = iter(self._round_keys)
        k0, k1 = next(keys)
        p0 = PHILOX_M0 * x0
        x0, x1, x2, x3 = k0, 0, ((p0 >> 64) ^ k1) & _LOW, p0
        for k0, k1 in keys:
            p0, p1 = PHILOX_M0 * x0, PHILOX_M1 * x2
            x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0) & _LOW, p1, ((p0 >> 64) ^ x3 ^ k1) & _LOW, p0
        # two ints whose lanes hold a counter's words 0 and 1, and 2 and 3
        low = _LANE_WORDS((x0 | (x1 & _LOW) << 64).to_bytes(16 * LANES, "little"))
        high = _LANE_WORDS((x2 | (x3 & _LOW) << 64).to_bytes(16 * LANES, "little"))
        words = [0] * (4 * LANES)
        words[0::4], words[1::4], words[2::4], words[3::4] = low[0::2], low[1::2], high[0::2], high[1::2]
        return words


def substream(seed: int, phase: str, generation: int = 0) -> Stream:
    """The stream of one (phase, generation) cell of the run."""
    # the fourth key word is fixed at 0: the pinned streams are keyed with
    # four words, and a shorter key would change every one of them
    key = [seed & MASK64, zlib.crc32(phase.encode("utf-8")), generation & MASK64, 0]
    return Stream(Philox(*seed_sequence_key(key)))


# ---------------------------------------------------------------------------
# numpy's ziggurat tables
# ---------------------------------------------------------------------------

# KI, WI and FI are numpy's ki_double, wi_double and fi_double
# (numpy/random/src/distributions/ziggurat_constants.h), 256 entries each.
# The bytes were read from the static library numpy 2.4.6 installs,
# numpy/random/lib/libnpyrandom.a: in its member
# src_distributions_distributions.c.o, .rodata starts at file offset
# 0x4480, and `nm -S` puts the three tables at +0x4000, +0x3800 and
# +0x3000, 0x800 bytes each. They are kept here in that order,
# little-endian, as unsigned 64-bit integers (KI) and doubles (WI, FI).
_TABLES = a2b_base64("""
au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCq
RPoKRxkPABjL/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4l
g1emjw8A2tBNxySXDwAJ9dsHqZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8AxnRT
jZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx7nqX
osYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8AmeyPTbXODwAwyR2/B9APAObE1k1G
0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLoyKlu1w8A6Ah7VEjY
DwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiBO90P
AJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8A
TLgoPFnhDwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/
rZ7pEOQPADR31EZn5A8AXAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ
2W825g8AeNXGdXvmDwCqER5mvuYPAPL05VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3
jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBBx+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJ
WekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLqDwAslTKrWuoPABp01aaB
6g8A8Bzel6fqDwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A+oTi9Hbr
DwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwP
AJbxKf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8A
t5F/xP7sDwAohTV3E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCC
qeRXg+0PAMgspAaU7Q8ABLeFK6TtDwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZ
kA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4
PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGXWAtq7g8Aegc+bHHuDwCCezJY
eO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahRmO4PAFxIEw6c
7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nu
DwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4P
AC6vJryb7g8A5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2rojuDwD9PX+Ogu4PAIi4p9577g8A
/zf/m3TuDwBevanDbO4PAH4AnlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDY
KuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqiCe4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5
zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8ANqg4HH/tDwArwLnSae0PAACuBo1T7Q8AIqTe
QTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8AwTAStpjsDwB4qQ0K
eewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKFyeFv
6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATq
DwA7Vi/WxekPAKRHqTuE6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgP
AMAzgkir5w8ApWofdUznDwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8A
WPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCq
cSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIICLvj42g8Adbqy4YXZDwAEz0jv5tcPAAtl
va0T1g8AEvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u0scPAO0iHi8rww8AOrjA
gWW9DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oaDwB52RV4
O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFov
rJ08w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88
ozwvsaLBnr2jPFWb/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mum
PHAFAJKi0qY8pvhG09o2pzx3KrMQrZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k8
6h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdiqjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6
n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8SLeADp8erTwQH+QpnWetPMO4
IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj22FT2Ua88rteH
nm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE
fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqn
ibE8iG3uURuosTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRb
sjx/0x1mKnmyPBvXGceBlrI82i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiez
PKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSysm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8
dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae33q0PC+PSDK6lrQ8XUEC9oeytDzc
EbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndYtTx4X1UOAHS1PBSF
DsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8Cya3
BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3
Jw+3PMYUaVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NM
z7c8595zjNbqtzwf6oakZwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQ
uDxDwAWSjqy4PJwMoatlyLg8J2pEUUnkuDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5
PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8
W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71Ws14yLo8NrOL4bTlujwa
ocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXba7W7PKLA
LmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2
vY+qvDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0
c4m9PHBuIJkJqr08Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8A
cr48Cr8qSyGUvjwIb/fAgba+PDqnEHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9m
vzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjBWfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTA
PMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeWwDzEwHF1zarAPEjU7tE9v8A8
MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8Oy5gSGRVwTzz
7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM
BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uW
MdTQwjz1eKmxDe7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5w
dazDPKYEF7Mnz8M8dfRgqtvywzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51z
t8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kW
xjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMGCVaVecc8jM7W9C3Uxzw08ikFAznI
PBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmCtDvNPAAAAAAAAPA/
h/B5yWpE7z8VqWxbVLfuP3fwJ+ARP+4/ld4Ep2/T7T/yvFcGknDtP9wZoXhJFO0/6y2nqDO97D9/
eKnOXmrsP+q67tkcG+w/gtzhTuvO6z9S9Y86ZYXrPxDdNII6Pus/ouhsPyr56j8EJXrx/rXqP+HJ
UNWLdOo/D6/1/ao06j/YH2XuO/bpP4EGJI0iuek/wXphV0Z96T9HehvCkULpP09xMb3xCOk/qArm
T1XQ6D8C37pIrZjoP6y8N/zrYeg/bs9WDwUs6D/L4iBL7fbnP1honHeawuc/1bCgPAOP5z9W2HAH
H1znPxJtP/TlKec/7nrqulD45j+JWmOeWMfmPyo7UV73luY/I+OSKidn5j8YDFWY4jfmP2UmgJgk
CeY/av9Kb+ja5T+JXMisKa3lP4+NTCbkf+U/Rp6N8BNT5T/VbGVatSblP2e2IOjE+uQ/wE5JTz/P
5D94UtxyIaTkPxJQ319oeeQ/eTZJShFP5D/jXzWKGSXkP4JbWJl+++M/ozGvED7S4z8OzWKmVanj
P9UA2ivDgOM/6VD1i4RY4z81OnDJlzDjP+84ZP36COM/7jvqVazh4j9KldcUqrriPxXNk47yk+I/
7QQFKYRt4j+E25BaXUfiP/L3L6l8IeI/IJaSqeD74T9pmVT+h9bhPxHRP1dxseE/UDybcJuM4T/a
OYYSBWjhP5ypXhCtQ+E/OB8xSJIf4T8TWTKis/vgP6BCQRAQ2OA/rtlwjaa04D+BXZkddpHgPzY8
8Mx9buA/Lj+mr7xL4D8qgovhMSngP8TKuIXcBuA/ob17jHfJ3z/KAKmnnYXfP/N6L8spQt8/lY9+
cRr/3j9UH70gbrzeP8XDTmojet4/hZtf6jg43j8JOnZHrfbdP7FWCzJ/td0/M94mZK103T+AEAKh
NjTdP21brrQZ9Nw/SKjAc1W03D/H1wC76HTcP7gsHW/SNdw/F2phfBH32z+RbXHWpLjbPxsTB3iL
ets/yjGzYsQ82z9ShaGeTv/aP55aXzopwto/gNikSlOF2j9NwCDqy0jaPz6ERjmSDNo/35MeXqXQ
2T/GwBiEBJXZP5Of4NuuWdk/F8szm6Me2T8V8bn84ePYP4iR3j9pqdg/tlqsqDhv2D/ZDap/TzXY
PxHZuBGt+9c/sBT0r1DC1z/rUpKvOYnXP+2xx2lnUNc/TGGpO9kX1z+qTBKGjt/WPyHeiK2Gp9Y/
4sslGsFv1j8V5Xs3PTjWP8jSgHT6ANY/RMJ2Q/jJ1T++7tYZNpPVPwABPXCzXNU/7TtTwm8m1T+S
bb+OavDUP6KcEFejutQ/1GqtnxmF1D/+JMPvzE/UPxl6NdG8GtQ/29KO0Ojl0z+uQ/F8ULHTP3kT
CGjzfNM/ntH5JdFI0z8v9lpN6RTTP2YHIXc74dI/3T+WPset0j8esU1BjHrSP4neFx+KR9I/nsz3
ecAU0j8WgRj2LuLRP1DwwjnVr9E/6FRU7bJ90T9n7jS7x0vRPyMkz08TGtE/xAmHWZXo0D/aQrKI
TbfQPzZDkI87htA/2elCIl9V0D9+dMf2tyTQP8WT34mL6M8/NTK4jBCIzz/SmOls/ifPP0ScyaRU
yM4/3TwoshJpzj+EcUUWOArOPwqQx1XEq80/T1Gy+LZNzT/Mb16KD/DMP1PfcZnNksw/R53Yt/A1
zD+hGL56eNnLP6oxh3pkfcs/OtHMUrQhyz8HGFeiZ8bKP34mGQt+a8o/PX4tMvcQyj9a/tK/0rbJ
Pyd8al8QXck/afp0v68DyT9bgZKRsKrIPziagYoSUsg/dXEfYtX5xz8jo2jT+KHHP6a1epx8Ssc/
FkeWfmDzxj9c8iE+pJzGP5zxraJHRsY/+YP4dkrwxT9sHfOIrJrFPzVoyKltRcU/wR/jrY3wxD8t
zvVsDJzEP9V1A8LpR8Q/rjFpiyX0wz/u1+iqv6DDP4irtAW4TcM/ZSp8hA77wj8aB3oTw6jCP7de
g6LVVsI/NDwYJUYFwj9CfXWSFLTBP2MtqOVAY8E/uW6iHcsSwT+6CVI9s8LAP4W/uEv5csA/Kn0G
VJ0jwD8sImvLPqm/PxwOUin/C78/S6Wa8ntvvj+P6HZhtdO9P+WRvbmrOL0/CnQ7SV+evD8VEAto
0AS8PzPi8nj/a7s/M/bK6ezTuj+GYuozmTy6PxlbndwEprk/q6CkdTAQuT9SKL+dHHu4P9bvPgHK
5rc/dhGqWjlTtz9MSmlza8C2PxhNhSRhLrY/pGZ0VxudtT+uK/oGmwy1PxMiG0DhfLQ/hpomI+/t
sz9wPtnkxV+zPxExm89m0rI/kQ3dRNNFsj99iZe+DLqxP50X8tAUL7E/JZYVLO2ksD+X5DCelxuw
PzVubCssJq8/gVGyR9UWrj9i8a3+LgmtPywqKA8+/as/cF84kAfzqj9jVSn5kOqpP6u1aCrg46g/
Hievd/vepz9k0Jiz6dumP9St8jyy2qU/XScRDl3bpD/L7pjO8t2jP5f0Peh84qI/vGofnwXpoT8R
gJYumPGgP8SlGNeB+J8/dYyC2xoSnj8aCc2DGTCcP/jrIk6fUpo/CsEAttF5mD+Cvwv02qWWP2Sw
+/Lq1pQ/E16rjTgNkz8SMGA0A0mRP0ndck8qFY8/rI9PJ42kiz94pI0NBEGIP+DPGkKW64Q/ki+V
KZKlgT83aOz4YOF8P124DNmonnY//bGwAx+KcD9nsMFDn19lPw/3ubYFplQ/
""")

KI: tuple[int, ...] = struct.unpack_from("<256Q", _TABLES, 0)
WI: tuple[float, ...] = struct.unpack_from("<256d", _TABLES, 2048)
FI: tuple[float, ...] = struct.unpack_from("<256d", _TABLES, 4096)

# the start of the tail layer, and its inverse, as numpy writes them
R = 3.6541528853610087963519472518
INV_R = 0.27366123732975827203338247596
