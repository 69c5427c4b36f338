"""The towers the benchmark runs, with the answers a correct program gives.

Corpus towers are copies of fieldsep's builtin corpus entries, so that a
change to the program's corpus does not change the benchmark's inputs;
their expected answers are derived by hand in README.md.  Seeded towers
are drawn from a `random.Random(seed)` by fixed rules whose answers
follow from the rule alone:

* over F_p, stages are irreducible polynomials over the prime field of
  pairwise distinct prime degrees d_i, so each stays irreducible over the
  stages below it and [E:K] = n = prod(d_i); an element sum_i u_i(g_i)
  has degree prod(d_i for the parts u_i that are not constant);
* over F_p(t), one stage g(x^(p^e)) with g Eisenstein at t and separable,
  so [E:K] = n = deg(g) * p^e, |Hom_K(E)| = deg(g), and an element is
  separable iff its power-basis coordinates vanish off the multiples of
  p^e.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from fields import divisors, format_poly, prime_factors, random_irreducible

CLI_COMMANDS = ("check", "element", "hom-count", "embeddings", "primitive",
                "closure", "subfields", "verify")


@dataclass
class Element:
    separable: bool
    degree: int | None       # [K(a):K] when a rule gives it, else None


@dataclass
class Tower:
    name: str
    text: str
    p: int
    finite: bool             # base F_p (True) or F_p(t) (False)
    degree: int              # n = [E:K]
    sep_degree: int          # |Hom_K(E, N)| = [E:K]_s
    elements: dict = field(default_factory=dict)   # name -> Element
    lattice: list | None = None                    # dims of the subfields
    complete: bool = True                          # lattice completeness
    commands: tuple = CLI_COMMANDS
    # (e, d) when E = K(s) with s of minimal polynomial g(x^(p^e)), deg g = d
    shape: tuple | None = None

    @property
    def separable(self):
        return self.sep_degree == self.degree


def _fp(name, text, p, n, elements, commands=CLI_COMMANDS):
    return Tower(name, text, p, True, n, n,
                 {k: Element(True, d) for k, d in elements.items()},
                 divisors(n), True, commands)


def _fpt(name, text, p, n, sep, elements, lattice, complete,
         commands=CLI_COMMANDS, shape=None):
    return Tower(name, text, p, False, n, sep,
                 {k: Element(s, d) for k, (s, d) in elements.items()},
                 lattice, complete, commands, shape)


# -- the builtin corpus, with hand-derived answers (README.md) ---------------

CORPUS = {t.name: t for t in [
    _fp("gf4", "base Fp 2\ngen w : x^2 + x + 1\nelem a = w + 1\n",
        2, 2, {"a": 2}),
    _fp("gf16", "base Fp 2\ngen w : x^2 + x + 1\ngen v : x^2 + x + w\n"
        "elem a = v + w\n", 2, 4, {"a": 4}),
    _fp("gf27", "base Fp 3\ngen c : x^3 + 2*x + 1\nelem a = c^2 + 1\n",
        3, 3, {"a": 3}),
    _fp("gf64_tower", "base Fp 2\ngen w : x^2 + x + 1\ngen c : x^3 + w\n"
        "elem a = c + w\n", 2, 6, {"a": 6}),
    _fp("gf729", "base Fp 3\ngen i : x^2 + 1\ngen c : x^3 + x + i\n"
        "elem a = c + i\n", 3, 6, {"a": 6}),
    _fp("gf4096", "base Fp 2\ngen w : x^2 + x + 1\ngen c : x^3 + w\n"
        "gen v : x^2 + x + w\nelem a = v + c\n", 2, 12, {"a": None}),
    _fpt("sqrt_t_p2", "base FpT 2\ngen s : x^2 + t\nelem a = s + 1\n"
         "elem b = s^2 + s\n", 2, 2, 1,
         {"a": (False, 2), "b": (False, 2)}, [1, 2], False),
    _fpt("cbrt_t_p3", "base FpT 3\ngen s : x^3 + 2*t\nelem a = s + t\n",
         3, 3, 1, {"a": (False, 3)}, [1, 3], False),
    _fpt("fifth_t_p5", "base FpT 5\ngen s : x^5 + 4*t\nelem a = s + 2\n",
         5, 5, 1, {"a": (False, 5)}, [1, 5], False),
    _fpt("quartic_t_p2", "base FpT 2\ngen a : x^4 + t\nelem b = a^2\n"
         "elem c = a^2 + a\n", 2, 4, 1,
         {"b": (False, 2), "c": (False, 4)}, [1, 2, 4], False),
    _fpt("mixed_p2", "base FpT 2\ngen b : x^4 + x^2 + t\nelem a = b^2\n"
         "elem c = b^2 + b\n", 2, 4, 2,
         {"a": (True, 2), "c": (False, 2)}, [1, 2, 4], False,
         shape=(1, 2)),
    _fpt("sqrt_t_p3", "base FpT 3\ngen s : x^2 + 2*t\nelem a = s + t\n",
         3, 2, 2, {"a": (True, 2)}, [1, 2], True),
    _fpt("biquadratic_p3", "base FpT 3\ngen s : x^2 + 2*t\n"
         "gen u : x^2 + 2*t + 2\nelem g = s + u\nelem h = s*u\n", 3, 4, 4,
         {"g": (True, 4), "h": (True, 2)}, [1, 2, 2, 2, 4], True),
    # `subfields` exits 2 here although the input is valid (CHANGES.md)
    _fpt("insep_tower_p2", "base FpT 2\ngen s : x^2 + t\n"
         "gen w : x^2 + s + 1\nelem a = w + s\n", 2, 4, 1,
         {"a": (False, 4)}, None, False,
         tuple(c for c in CLI_COMMANDS if c != "subfields")),
    _fpt("trans_tower_p3", "base FpT 3\ngen s : x^2 + 2*t\n"
         "gen w : x^2 + 2*s + 2\nelem a = w + s\n", 3, 4, 4,
         {"a": (True, 4)}, [1, 2, 4], True),
]}


def corpus(name, commands=None):
    """A corpus tower, optionally limited to some CLI commands."""
    t = CORPUS[name]
    return t if commands is None else replace(t, commands=tuple(commands))


# -- seeded towers over F_p ---------------------------------------------------


def _dense(rng, p, d):
    """Coefficients of a polynomial of degree d - 1 with none of them zero.

    Drawing only the values, never the shape, keeps the cost of the
    operations on a seeded tower nearly the same from seed to seed.
    """
    return [rng.randrange(1, p) for _ in range(d)]


def seeded_finite(rng, name, p, degrees):
    """A tower over F_p with stages of the given distinct prime degrees.

    Element `a` has a nonconstant part in every stage, so its degree is n;
    element `b` lives in the first stage only, so its degree is d_1.
    """
    gens = [f"g{i + 1}" for i in range(len(degrees))]
    lines = [f"base Fp {p}"]
    for g, d in zip(gens, degrees):
        lines.append(f"gen {g} : " + format_poly(random_irreducible(rng, p, d),
                                                  "x"))
    parts = [format_poly(_dense(rng, p, d), g) for g, d in zip(gens, degrees)]
    lines.append("elem a = " + " + ".join(f"({q})" for q in parts))
    lines.append("elem b = " + format_poly(_dense(rng, p, degrees[0]),
                                           gens[0]))
    n = 1
    for d in degrees:
        n *= d
    return _fp(name, "\n".join(lines) + "\n", p, n,
               {"a": n, "b": degrees[0]})


# -- seeded towers over F_p(t) ------------------------------------------------


def _t_poly(coeffs):
    return format_poly(coeffs, "t") if any(coeffs) else ""


def eisenstein(rng, p, d):
    """Coefficients c_0..c_{d-1} (F_p[t] as int lists) of monic g, deg d.

    Each c_i = u t with u nonzero: t divides every c_i and t^2 does not
    divide c_0, so g is irreducible over F_p(t); g' has the nonzero
    constant term c_1 (d >= 2), so g is separable.  Keeping the t-degree
    fixed keeps the cost nearly the same from seed to seed.
    """
    return [[0] + _dense(rng, p, 1) for _ in range(d)]


def seeded_function_field(rng, name, p, d, e):
    """One stage x^(d p^e) + ... with generator g(x^(p^e)), g Eisenstein.

    Element `a` has nonzero coordinates only at 1 and s^(p^e), so it is
    separable; it exists when d >= 2.  Element `b` has every coordinate
    nonzero, so it is inseparable when e >= 1 and generates E when d = 1.
    """
    q = p ** e
    n = d * q
    cs = eisenstein(rng, p, d)
    gen = [""] * (n + 1)
    gen[n] = 1
    for i, c in enumerate(cs):
        gen[i * q] = _t_poly(c)
    lines = [f"base FpT {p}", "gen s : " + format_poly(gen, "x")]
    elements = {}
    if d >= 2:
        coords = [0] * n
        coords[0], coords[q] = _dense(rng, p, 2)
        lines.append("elem a = " + format_poly(coords, "s"))
        # in E_s = K(s^q) of prime degree d, so of degree d
        elements["a"] = Element(True, d)
    coords = _dense(rng, p, n)
    lines.append("elem b = " + format_poly(coords, "s"))
    elements["b"] = Element(e == 0, element_degree(coords, p, d, e))
    if e:
        lattice = sorted({1} | {d * p ** k for k in range(e + 1)})
    else:
        lattice = [1, d]
    return Tower(name, "\n".join(lines) + "\n", p, False, n, d, elements,
                 lattice, e == 0, CLI_COMMANDS, (e, d))


def element_degree(coords, p, d, e):
    """[K(a):K] for a = sum coords[j] s^j, where a rule gives it.

    With e = 0 and d prime, a nonconstant a generates E.  With d = 1 the
    subfields are the chain K(s^(p^j)), and a lies in K(s^(p^j)) iff its
    coordinates vanish off the multiples of p^j.
    """
    support = [j for j, c in enumerate(coords) if c and j]
    if not support:
        return 1
    if e == 0:
        return d if prime_factors(d) == [d] else None
    if d != 1:
        return None
    v = 0
    while v < e and all(j % p ** (v + 1) == 0 for j in support):
        v += 1
    return p ** (e - v)
