"""Three-valued verdicts for omega-language membership queries.

Every decider answers Member.YES or Member.NO, except a3_omega_member under
an E-depth budget below the lasso's depth cap: a run found at the budget's
depth stands as YES, and anything else is Member.INCONCLUSIVE.  The enum
deliberately has no truth value: callers must compare explicitly.
"""

import enum


class Member(enum.Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"

    @staticmethod
    def of(flag: bool) -> "Member":
        return Member.YES if flag else Member.NO
