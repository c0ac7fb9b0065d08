"""The Kishino knot: trivial Jones polynomial, provably non-classical.

The Kishino knot is the standard example of a virtual knot the Jones
polynomial cannot see.  Its surface bracket polynomial can: traced on
the genus-2 Carter surface, the state curves fall into homology classes
whose coefficients survive, and two independent criteria certify that no
destabilizing curve exists.  Run:  python3 demos/kishino_certificate.py
"""

from vknot import (
    build_carter_surface,
    catalog,
    catalog_p_family,
    certify,
    f_polynomial,
    format_gauss_code,
    format_laurent,
    kauffman_bracket,
    surface_bracket,
)
from vknot.analysis import format_curve_key


def main() -> None:
    k = catalog("kishino")
    print("Kishino knot:", format_gauss_code(k))
    print("  f-polynomial:", format_laurent(f_polynomial(k)), " (the unknot's!)")
    print("  bracket     :", format_laurent(kauffman_bracket(k)))

    rep = build_carter_surface(k)
    print("\nCarter surface genus:", rep.genus)

    sb = surface_bracket(rep)
    print(
        f"{2 ** k.n_crossings} smoothing states; {len(sb.entries)} curve-class keys, "
        f"{len(sb.nonzero_classes())} distinct nonzero classes"
    )
    print("\nsurface bracket (homology-class keys):")
    for key, coeff in sorted(sb.entries.items(), key=lambda kv: format_curve_key(kv[0])):
        print(f"  [{format_curve_key(key)}]  {format_laurent(coeff)}")

    cert = certify(k)
    print("\ncertificate:", cert)
    for c in cert.criteria:
        print(f"  {c.name}: {'satisfied' if c.satisfied else 'not satisfied'}")

    print("\nThe twist family generalizes this to infinitely many examples")
    print("with trivial f-polynomial, all certified at genus 2:")
    for n in range(4):
        d = catalog_p_family(n)
        print(
            f"  P_{n} ({d.n_crossings:2d} crossings): f = "
            f"{format_laurent(f_polynomial(d))},  {certify(d)}"
        )


if __name__ == "__main__":
    main()
