"""Write reference_verify.json: the check() report of every valid instance
with n <= 20 under the pinned default moduli.

The verify-sweep gate compares each report of a run against this file, so
it is made once and committed; run it again only on purpose:

    python3 perfbench/make_reference.py
"""

import json

from run import load_permtri
from workloads import REFERENCE_PATH, SWEEP_MAX_N, family_instances, instance_label


def main():
    pt = load_permtri()
    reference = {}
    for inst in family_instances(pt, 2, SWEEP_MAX_N, pt.field.default_spec):
        report = pt.permcheck.check(pt.families.value_table(inst), inst.spec)
        reference[instance_label(inst)] = report.to_json_dict()
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {len(reference)} reports to {REFERENCE_PATH.name}")


if __name__ == "__main__":
    main()
