      PROGRAM P
      I = MAX()
      END
